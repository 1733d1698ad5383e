// Formula-state footprint record (BENCH_memory.json) — the space half of
// the bench trajectory, companion to bench_micro's throughput record.
//
// Five sections:
//   * incremental_depth — api::check, incremental with delta
//                 preprocessing, on cntm12_m3000+d48 to depths 60 and 120:
//                 the race tracker's peak and VmHWM after each;
//   * rows      — per quick-suite model: the tape's raw cost, its codec
//                 cost, bytes/clause both ways, and what cold storage
//                 leaves resident after freezing the whole prefix;
//   * pauses    — the arena's chunk-allocation and GC pause histograms
//                 from a metrics-enabled end-to-end run (the chunked
//                 arena's "no multi-ms realloc stall" claim, measured);
//   * rank_row  — the same race twice, once with the shared rank source
//                 demoted (lone consumer) and once forced, proving the
//                 demoted lineup pays nothing for unused rank machinery;
//   * process   — peak RSS (VmHWM) and the race tracker's own peak.
//
// Two claims are enforced, not just reported: the run fails (exit 1)
// unless total encoded bytes are at most 1/3 of raw, and unless doubling
// the incremental depth from 60 to 120 at most triples the tracker peak
// and VmHWM (the delta path's state grows with the unrolling, not with
// its square).  VmHWM backs the tracker: state the tracker is not
// charged for shows up there.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/refbmc.hpp"
#include "bmc/encoder.hpp"
#include "bmc/tape.hpp"
#include "bmc/tape_codec.hpp"
#include "harness.hpp"
#include "model/benchgen.hpp"
#include "obs/metrics.hpp"
#include "portfolio/scheduler.hpp"
#include "util/timer.hpp"

namespace {

using namespace refbmc;
using benchharness::JsonWriter;

/// Peak resident set of this process in kilobytes (/proc/self/status
/// VmHWM), or 0 where procfs is unavailable.
std::uint64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void write_histogram(JsonWriter& w, const char* name) {
  const obs::Histogram& h = obs::metrics().histogram(name);
  w.key(name);
  w.begin_object();
  w.kv("count", h.count());
  w.kv("mean_us", h.mean());
  w.kv("max_us", h.max());
  w.kv("p50_us", h.percentile(0.50));
  w.kv("p90_us", h.percentile(0.90));
  w.kv("p99_us", h.percentile(0.99));
  w.end_object();
}

struct DepthRun {
  int depth = 0;
  std::uint64_t peak_mem_bytes = 0;
  std::uint64_t vm_hwm_kb = 0;
  double wall_sec = 0.0;
};

/// One single-entrant incremental check (delta preprocessing is the
/// default) to `depth`; VmHWM is read right after, so the first run's
/// figure is its own and later ones include every earlier run.
DepthRun incremental_check(const model::Benchmark& bm, int depth) {
  api::CheckRequest req;
  req.net = bm.net;
  req.name = bm.name;
  req.options.policy("dynamic").incremental(true).max_depth(depth);
  Timer t;
  const api::CheckResult res = api::check(req);
  return DepthRun{depth, res.peak_mem_bytes, vm_hwm_kb(), t.elapsed_sec()};
}

int run() {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "memory");

  // ---- incremental depth scaling ------------------------------------------
  // Runs first, so the depth-60 VmHWM is not masked by later sections.
  const model::Benchmark deep =
      model::with_distractor(model::counter_safe(12, 3000, 4000), 48, 111);
  const DepthRun half = incremental_check(deep, 60);
  const DepthRun full = incremental_check(deep, 120);
  const auto growth = [](std::uint64_t from, std::uint64_t to) {
    return from > 0 ? static_cast<double>(to) / static_cast<double>(from)
                    : 0.0;
  };
  const double peak_growth = growth(half.peak_mem_bytes, full.peak_mem_bytes);
  const double hwm_growth = growth(half.vm_hwm_kb, full.vm_hwm_kb);
  w.key("incremental_depth");
  w.begin_object();
  w.kv("model", deep.name);
  for (const DepthRun& r : {half, full}) {
    w.key("depth_" + std::to_string(r.depth));
    w.begin_object();
    w.kv("peak_mem_bytes", r.peak_mem_bytes);
    w.kv("vm_hwm_kb", r.vm_hwm_kb);
    w.kv("wall_sec", r.wall_sec);
    w.end_object();
  }
  w.kv("peak_growth", peak_growth);
  w.kv("vm_hwm_growth", hwm_growth);
  w.end_object();

  // ---- tape codec compression, per model --------------------------------
  w.key("rows");
  w.begin_array();
  std::uint64_t tot_raw = 0, tot_encoded = 0, tot_clauses = 0;
  for (const auto& bm : model::quick_suite()) {
    bmc::ClauseTape tape;
    bmc::FrameEncoder enc(bm.net, tape);
    enc.encode_to(bm.suggested_bound);

    const std::size_t raw = tape.raw_bytes();
    const bmc::TapeCodec::EncodedRange range =
        bmc::TapeCodec::encode(tape, tape.mark());
    const std::size_t encoded = range.bytes.size();
    const std::size_t clauses = tape.num_clauses();
    const std::size_t resident_hot = tape.memory_bytes();
    tape.freeze_prefix(tape.mark());
    const std::size_t resident_cold = tape.memory_bytes();

    w.begin_object();
    w.kv("name", bm.name);
    w.kv("depth", bm.suggested_bound);
    w.kv("clauses", static_cast<std::uint64_t>(clauses));
    w.kv("raw_bytes", static_cast<std::uint64_t>(raw));
    w.kv("encoded_bytes", static_cast<std::uint64_t>(encoded));
    w.kv("raw_bytes_per_clause",
         clauses > 0 ? static_cast<double>(raw) / clauses : 0.0);
    w.kv("encoded_bytes_per_clause",
         clauses > 0 ? static_cast<double>(encoded) / clauses : 0.0);
    w.kv("compression",
         encoded > 0 ? static_cast<double>(raw) / encoded : 0.0);
    // What a frozen tape still keeps resident (segments + live tail).
    w.kv("resident_hot_bytes", static_cast<std::uint64_t>(resident_hot));
    w.kv("resident_cold_bytes", static_cast<std::uint64_t>(resident_cold));
    w.end_object();

    tot_raw += raw;
    tot_encoded += encoded;
    tot_clauses += clauses;
  }
  w.end_array();

  w.key("codec_totals");
  w.begin_object();
  w.kv("clauses", tot_clauses);
  w.kv("raw_bytes", tot_raw);
  w.kv("encoded_bytes", tot_encoded);
  w.kv("compression",
       tot_encoded > 0 ? static_cast<double>(tot_raw) / tot_encoded : 0.0);
  w.end_object();

  // ---- arena pause histograms -------------------------------------------
  // A metrics-enabled end-to-end run over a grinding UNSAT instance: the
  // solver allocates chunks as the formula grows and GCs learnt clauses
  // at reductions, so both histograms get real observations.  The claim
  // under watch: chunked growth never relocates, so no allocation pause
  // scales with the arena size.
  {
    obs::metrics_enable(true);
    obs::metrics().reset();
    const model::Benchmark bm = model::needle(6, 6, 40, 50);
    bmc::EngineConfig cfg;
    cfg.max_depth = bm.suggested_bound;
    bmc::BmcEngine(bm.net, cfg).run();
    obs::metrics_enable(false);

    w.key("pauses");
    w.begin_object();
    write_histogram(w, "arena.chunk_alloc_us");
    write_histogram(w, "arena.gc_pause_us");
    w.end_object();
  }

  // ---- rank demotion row -------------------------------------------------
  // {Static, Evsids} has one rank consumer: the scheduler demotes the
  // shared source and the lone consumer keeps its engine-private loop.
  // The forced twin materialises the shared source anyway; the delta
  // between the two is the machinery cost the demotion saves.
  std::uint64_t race_peak_mem = 0;
  {
    const model::Benchmark bm = model::needle(6, 6, 40, 50);
    bmc::EngineConfig cfg;
    cfg.max_depth = bm.suggested_bound;
    const std::vector<bmc::OrderingPolicy> lineup = {
        bmc::OrderingPolicy::Static, bmc::OrderingPolicy::Evsids};

    w.key("rank_row");
    w.begin_object();
    w.kv("model", bm.name);
    for (const bool force : {false, true}) {
      portfolio::SharingConfig sharing;
      sharing.rank_force = force;
      portfolio::PortfolioScheduler sched(2, /*base_seed=*/31, sharing);
      Timer t;
      const portfolio::RaceResult race = sched.race(bm.net, 0, cfg, lineup);
      const double wall = t.elapsed_sec();
      if (!force) race_peak_mem = race.peak_mem_bytes;
      w.key(force ? "forced" : "demoted");
      w.begin_object();
      w.kv("wall_sec", wall);
      w.kv("rank_sharing", race.rank_sharing);
      w.kv("ranks_published", race.ranks_published);
      w.kv("rank_refreshes", race.rank_refreshes);
      w.end_object();
    }
    w.end_object();
  }

  // ---- process footprint -------------------------------------------------
  w.key("process");
  w.begin_object();
  w.kv("vm_hwm_kb", vm_hwm_kb());
  w.kv("race_peak_mem_bytes", race_peak_mem);
  w.end_object();

  w.end_object();

  if (!w.write_file("BENCH_memory.json")) {
    std::fprintf(stderr, "bench_memory: cannot write BENCH_memory.json\n");
    return 1;
  }
  const double ratio =
      tot_encoded > 0 ? static_cast<double>(tot_raw) / tot_encoded : 0.0;
  std::printf(
      "bench_memory: wrote BENCH_memory.json (%llu clauses, %.2fx codec)\n",
      static_cast<unsigned long long>(tot_clauses), ratio);

  std::printf(
      "bench_memory: incremental %s depth 60 -> 120: tracker peak %.2fx, "
      "VmHWM %.2fx\n",
      deep.name.c_str(), peak_growth, hwm_growth);

  int status = 0;
  // The acceptance bar: encoded at most a third of raw, in aggregate.
  if (tot_encoded * 3 > tot_raw) {
    std::fprintf(stderr,
                 "bench_memory: FAIL — encoded %llu > raw %llu / 3\n",
                 static_cast<unsigned long long>(tot_encoded),
                 static_cast<unsigned long long>(tot_raw));
    status = 1;
  }
  // Doubling the depth may at most triple the incremental footprint
  // (VmHWM is 0 without procfs, which skips its half of the check).
  if (full.peak_mem_bytes > 3 * half.peak_mem_bytes) {
    std::fprintf(stderr,
                 "bench_memory: FAIL — incremental tracker peak %llu B at "
                 "depth 120 > 3 x %llu B at depth 60\n",
                 static_cast<unsigned long long>(full.peak_mem_bytes),
                 static_cast<unsigned long long>(half.peak_mem_bytes));
    status = 1;
  }
  if (full.vm_hwm_kb > 3 * half.vm_hwm_kb) {
    std::fprintf(stderr,
                 "bench_memory: FAIL — VmHWM %llu kB after depth 120 > 3 x "
                 "%llu kB after depth 60\n",
                 static_cast<unsigned long long>(full.vm_hwm_kb),
                 static_cast<unsigned long long>(half.vm_hwm_kb));
    status = 1;
  }
  return status;
}

}  // namespace

int main() { return run(); }
