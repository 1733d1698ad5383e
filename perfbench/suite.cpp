#include "suite.hpp"

#include "model/aiger.hpp"

namespace perfbench {

namespace m = refbmc::model;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<RowSpec>& suite_specs() {
  // Same rows, order and distractor seeds as model::standard_suite().
  static const std::vector<RowSpec> specs = {
      {[] { return m::counter_reach(8, 24, true); }},
      {[] { return m::counter_reach(10, 18, true); }},
      {[] { return m::counter_reach(8, 24, true); }, 24, 101},
      {[] { return m::counter_reach(10, 18, true); }, 40, 110},
      {[] { return m::counter_safe(8, 200, 250); }},
      {[] { return m::counter_safe(8, 200, 250); }, 32, 102},
      {[] { return m::counter_safe(12, 3000, 4000); }, 48, 111},
      {[] { return m::shift_all_ones(12); }},
      {[] { return m::lfsr_hit(16, 22); }},
      {[] { return m::lfsr_safe(10); }},
      {[] { return m::gray_safe(8); }},
      {[] { return m::gray_safe(8); }, 24, 112},
      {[] { return m::johnson_safe(12); }},
      {[] { return m::arbiter_safe(8); }},
      {[] { return m::arbiter_safe(16); }},
      {[] { return m::arbiter_safe(8); }, 24, 103},
      {[] { return m::arbiter_safe(12); }, 32, 113},
      {[] { return m::arbiter_buggy(8); }},
      {[] { return m::fifo_safe(4); }},
      {[] { return m::fifo_safe(5); }},
      {[] { return m::fifo_safe(4); }, 32, 104},
      {[] { return m::fifo_safe(5); }, 24, 114},
      {[] { return m::fifo_buggy(4); }},
      {[] { return m::fifo_buggy(4); }, 24, 105},
      {[] { return m::peterson_safe(); }},
      {[] { return m::peterson_safe(); }, 32, 106},
      {[] { return m::peterson_buggy(); }, 24, 115},
      {[] { return m::traffic_safe(4); }},
      {[] { return m::traffic_buggy(4); }},
      {[] { return m::accumulator_reach(12, 3, 70); }},
      {[] { return m::accumulator_reach(16, 4, 255); }},
      {[] { return m::accumulator_reach(12, 3, 70); }, 24, 108},
      {[] { return m::accumulator_reach(16, 4, 255); }, 24, 116},
      {[] { return m::accumulator_safe(12, 3, 63); }},
      {[] { return m::needle(8, 8, 20, 10); }},
      {[] { return m::needle(10, 8, 24, 30); }},
      {[] { return m::needle(10, 8, 24, 30); }, 32, 109},
  };
  return specs;
}

m::Benchmark build_row(const RowSpec& spec, std::uint64_t seed, int variant) {
  m::Benchmark bm = spec.base();
  if (spec.distractor_regs == 0) return bm;
  std::uint64_t dseed = spec.distractor_seed;
  if (seed != 0 || variant != 0)
    dseed = splitmix64(dseed ^ splitmix64(seed * 4 + variant));
  return m::with_distractor(std::move(bm), spec.distractor_regs, dseed);
}

m::Benchmark fresh_variant(const RowSpec& spec, int regs, std::uint64_t seed,
                           int seq) {
  return m::with_distractor(
      spec.base(), regs,
      splitmix64(splitmix64(seed) ^ (0x5bd1e995ull * static_cast<std::uint64_t>(seq))));
}

std::vector<m::Benchmark> seeded_suite(std::uint64_t seed) {
  std::vector<m::Benchmark> suite;
  suite.reserve(suite_specs().size());
  for (const RowSpec& spec : suite_specs())
    suite.push_back(build_row(spec, seed));
  return suite;
}

bool mirrors_standard_suite() {
  const auto ours = seeded_suite(0);
  const auto theirs = m::standard_suite();
  if (ours.size() != theirs.size()) return false;
  for (std::size_t i = 0; i < ours.size(); ++i) {
    if (ours[i].name != theirs[i].name ||
        ours[i].expect_fail != theirs[i].expect_fail ||
        ours[i].expect_depth != theirs[i].expect_depth ||
        ours[i].suggested_bound != theirs[i].suggested_bound ||
        m::to_aiger_string(ours[i].net) != m::to_aiger_string(theirs[i].net))
      return false;
  }
  return true;
}

std::string oracle(const m::Benchmark& bm, int bound, const Outcome& out,
                   bool capped) {
  const bool fails =
      bm.expect_fail && (bm.expect_depth < 0 || bm.expect_depth <= bound);
  if (capped) {
    if (out.cex) return "capped check reported a counterexample";
    if (fails && bm.expect_depth >= 0 && out.last_completed >= bm.expect_depth)
      return "capped check passed the earliest failing depth";
    return {};
  }
  if (fails) {
    if (!out.cex) return "expected a counterexample";
    if (bm.expect_depth >= 0 && out.cex_depth != bm.expect_depth)
      return "counterexample at depth " + std::to_string(out.cex_depth) +
             ", expected " + std::to_string(bm.expect_depth);
    if (out.trace == nullptr || out.trace->depth != out.cex_depth ||
        !refbmc::bmc::validate_trace(bm.net, *out.trace))
      return "counterexample does not replay";
    return {};
  }
  if (out.cex) return "unexpected counterexample";
  if (!out.bound || out.last_completed != bound)
    return "bound " + std::to_string(bound) + " not reached";
  return {};
}

}  // namespace perfbench
