// Seeded mirror of model::standard_suite() plus the verdict oracle.
//
// The benchmark re-seeds only the `with_distractor` rows: seed 0 rebuilds
// standard_suite() exactly (checked once per run by comparing AIGER
// text), any other seed derives fresh distractor seeds, which keeps every
// row's verdict and earliest failure depth (with_distractor's contract)
// while changing the instance.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bmc/trace.hpp"
#include "model/benchgen.hpp"

namespace perfbench {

struct RowSpec {
  std::function<refbmc::model::Benchmark()> base;
  int distractor_regs = 0;  // 0: the row has no distractor
  std::uint64_t distractor_seed = 0;
};

/// The 37 rows of standard_suite(), in its order.
const std::vector<RowSpec>& suite_specs();

/// Builds row `spec` for benchmark seed `seed`; `variant` picks one of
/// several seed-derived distractors (seed 0, variant 0 is the original).
refbmc::model::Benchmark build_row(const RowSpec& spec, std::uint64_t seed,
                                   int variant = 0);

/// Row `spec`'s base circuit wrapped in a new `regs`-register distractor
/// derived from (`seed`, `seq`): a netlist no other call returns.
refbmc::model::Benchmark fresh_variant(const RowSpec& spec, int regs,
                                       std::uint64_t seed, int seq);

/// All 37 rows for `seed`.
std::vector<refbmc::model::Benchmark> seeded_suite(std::uint64_t seed);

/// True when seeded_suite(0) equals model::standard_suite() row for row.
bool mirrors_standard_suite();

/// What one finished check returned, in the form the oracle reads.
struct Outcome {
  bool cex = false;          // a counterexample was reported
  bool bound = false;        // every depth up to the bound was UNSAT
  int cex_depth = -1;
  int last_completed = -1;
  const refbmc::bmc::Trace* trace = nullptr;
};

/// Checks `out` against the generator's ground truth for an unrolling to
/// `bound`: a failing row must yield a counterexample at expect_depth
/// that replays on the simulator; a passing row must reach the bound
/// (callers unrolling past suggested_bound pick rows that hold at every
/// depth).  A capped check (`capped`) must report no counterexample and
/// have completed only depths before the earliest failure.  Returns the
/// empty string when the verdict is right, else the reason.
std::string oracle(const refbmc::model::Benchmark& bm, int bound,
                   const Outcome& out, bool capped = false);

}  // namespace perfbench
