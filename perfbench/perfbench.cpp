// perfbench: the repository's steady end-to-end benchmark.
//
//   perfbench --workload W --seed N --passes P [--trace 0|1] [--socket PATH]
//
// Four workloads, each a deterministic unit of work (a "pass") run P
// times through the public APIs only:
//
//   table1            Table 1 of the paper: 37 rows x {baseline, static,
//                     dynamic} through bmc::BmcEngine (EngineConfig
//                     defaults, counterexample validation on) under a
//                     per-depth conflict cap, compared at the deepest
//                     depth every policy completed;
//   deep-incremental  single-entrant dynamic checks through api::check
//                     with incremental(true), unrolled deep;
//   race              the 4-entrant portfolio (lemma and rank exchange
//                     on) through api::check, 3 distractor variants/row;
//   serve             JobServer behind SocketServer, fed over a Client
//                     connection by an open-loop generator at a fixed
//                     ladder of offered rates.
//
// No job carries a wall-clock budget; the only cut-off is table1's
// conflict cap, which falls at the same place on every run.  Every
// verdict goes through the oracle of suite.hpp.
//
// Output is one JSON object per line ("kind": calib | setup | parse | check |
// op | pass | step | job | span | rss | error); run.py turns it into the report and
// the metrics.  With --trace 1 the first pass runs untraced and the rest
// record spans around every call into a layer; spans are kept in memory
// and printed when the run ends.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/refbmc.hpp"
#include "bmc/engine.hpp"
#include "model/aiger.hpp"
#include "service/job_server.hpp"
#include "service/transport.hpp"
#include "suite.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace perfbench {
namespace {

using namespace refbmc;
using Clock = std::chrono::steady_clock;

// ---- output ----------------------------------------------------------------

void emit(const JsonWriter& w) {
  std::fputs(w.str().c_str(), stdout);
  std::fputc('\n', stdout);
}

/// Seconds since the process started: small enough that every printed
/// timestamp keeps microsecond resolution at JsonWriter's 9 digits.
double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double us_to_s(std::uint64_t us) { return 1e-6 * static_cast<double>(us); }

// ---- host speed --------------------------------------------------------------
//
// The host is shared.  The same deterministic pass, with the same search
// counts, reads 22 s or 42 s some minutes apart, with no steal time and an
// unchanged compute-bound loop: other tenants slow the cache hierarchy.
// calibrate() times a fixed walk that shares no code with refbmc, a
// dependent chase around a 128 KiB random ring, which slows with it (it
// tracked pass-to-pass ratios within 1 %); run.py scales times by it.

double calibrate() {
  constexpr std::uint32_t kRing = 1u << 15;
  constexpr int kSteps = 1 << 17;
  static const std::vector<std::uint32_t> ring = [] {
    std::vector<std::uint32_t> order(kRing);
    for (std::uint32_t i = 0; i < kRing; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937_64(42));
    std::vector<std::uint32_t> next(kRing);
    for (std::uint32_t i = 0; i < kRing; ++i)
      next[order[i]] = order[(i + 1) % kRing];
    return next;
  }();
  static volatile std::uint32_t sink = 0;
  const double t0 = now_s();
  std::uint32_t at = 0;
  for (int k = 0; k < kSteps; ++k) at = ring[at];
  sink = at;
  return now_s() - t0;
}

/// `samples` calibration walks, one record each (`pass` -1: set-up).
void emit_calib(int pass, int samples = 1) {
  for (int i = 0; i < samples; ++i) {
    JsonWriter w;
    w.begin_object();
    w.kv("kind", "calib");
    w.kv("pass", pass);
    w.kv("s", calibrate());
    w.end_object();
    emit(w);
  }
}

// ---- spans -----------------------------------------------------------------

/// Benchmark-side spans around calls into a layer; inactive (one branch
/// per call) outside traced passes.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int check = -1;
  };

  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  /// Opens a span; returns its index (-1 when inactive).
  int open(const std::string& name, int check = -1) {
    if (!active_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.check = check >= 0 ? check : (s.parent >= 0 ? spans_[s.parent].check : -1);
    s.start = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  void flush() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonWriter w;
      w.begin_object();
      w.kv("kind", "span");
      w.kv("id", static_cast<std::uint64_t>(i));
      w.kv("name", s.name);
      w.kv("start", s.start);
      w.kv("end", s.end);
      w.kv("parent", s.parent);
      w.kv("check", s.check);
      w.end_object();
      emit(w);
    }
  }

 private:
  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

/// RAII span (no-op when tracing is off).
class Scope {
 public:
  explicit Scope(const std::string& name, int check = -1)
      : id_(g_spans.open(name, check)) {}
  ~Scope() { g_spans.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---- shared record helpers ----------------------------------------------------

struct DepthTotals {
  std::uint64_t decisions = 0, propagations = 0, conflicts = 0;
  // prepare_us is DepthStats::encode_us, the whole materialisation of a
  // depth; simplify and preprocess run inside it, so encode_us here is
  // the exclusive remainder.
  std::uint64_t prepare_us = 0, encode_us = 0, simplify_us = 0, solve_us = 0;
  std::uint64_t preprocess_us = 0, inprocess_us = 0;
  std::uint64_t vars_eliminated = 0;
  std::uint64_t savepoint_hits = 0, savepoint_misses = 0;
  std::uint64_t published = 0, refreshes = 0;
  std::uint64_t tape_bytes = 0, arena_bytes = 0;
  double solve_s = 0.0;  // Σ DepthStats::time_sec (the Table 1 quantity)

  explicit DepthTotals(const std::vector<bmc::DepthStats>& per_depth,
                       int up_to_depth = 1 << 30) {
    for (const bmc::DepthStats& d : per_depth) {
      if (d.depth > up_to_depth) break;
      decisions += d.decisions;
      propagations += d.propagations;
      conflicts += d.conflicts;
      prepare_us += d.encode_us;
      encode_us += d.encode_us -
                   std::min(d.encode_us, d.simplify_us + d.preprocess_us);
      simplify_us += d.simplify_us;
      solve_us += d.solve_us;
      preprocess_us += d.preprocess_us;
      inprocess_us += d.inprocess_us;
      vars_eliminated += d.vars_eliminated;
      savepoint_hits += d.savepoint_hits;
      savepoint_misses += d.savepoint_misses;
      published += d.ranks_published;
      refreshes += d.rank_refreshes;
      tape_bytes = std::max(tape_bytes, d.tape_bytes);
      arena_bytes = std::max(arena_bytes, d.arena_bytes);
      solve_s += d.time_sec;
    }
  }

  void write(JsonWriter& w) const {
    w.kv("decisions", decisions);
    w.kv("propagations", propagations);
    w.kv("conflicts", conflicts);
    w.kv("solve_s", solve_s);
    w.kv("prepare_s", us_to_s(prepare_us));
    w.kv("encode_s", us_to_s(encode_us));
    w.kv("simplify_s", us_to_s(simplify_us));
    w.kv("sat_s", us_to_s(solve_us));
    w.kv("preprocess_s", us_to_s(preprocess_us));
    w.kv("inprocess_s", us_to_s(inprocess_us));
    w.kv("vars_eliminated", vars_eliminated);
    w.kv("savepoint_hits", savepoint_hits);
    w.kv("savepoint_misses", savepoint_misses);
    w.kv("published", published);
    w.kv("refreshes", refreshes);
    w.kv("tape_bytes", tape_bytes);
    w.kv("arena_bytes", arena_bytes);
  }
};

void emit_error(const std::string& what) {
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "error");
  w.kv("what", what);
  w.end_object();
  emit(w);
}

void emit_setup(double seconds, double gen_seconds) {
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "setup");
  w.kv("s", seconds);
  w.kv("gen_s", gen_seconds);
  w.end_object();
  emit(w);
}

/// Parses the AIGER text of every model the workload uses (untimed by
/// the workload itself): model.parse_s, and a round-trip sanity check.
bool emit_parse(const std::vector<const model::Benchmark*>& models) {
  double total = 0.0;
  for (const model::Benchmark* bm : models) {
    const std::string text = model::to_aiger_string(bm->net);
    const double t0 = now_s();
    const model::Netlist net = model::read_aiger_string(text);
    total += now_s() - t0;
    if (net.num_latches() != bm->net.num_latches() ||
        net.num_inputs() != bm->net.num_inputs()) {
      emit_error("AIGER round trip changed " + bm->name);
      return false;
    }
  }
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "parse");
  w.kv("models", static_cast<std::uint64_t>(models.size()));
  w.kv("s", total);
  w.end_object();
  emit(w);
  return true;
}

/// Peak resident set of this process (VmHWM), in KiB.
void emit_rss() {
  std::ifstream status("/proc/self/status");
  std::string line;
  std::uint64_t kb = 0;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) kb = std::stoull(line.substr(6));
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "rss");
  w.kv("vmhwm_kb", kb);
  w.end_object();
  emit(w);
}

void emit_op(int pass, double seconds) {
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "op");
  w.kv("pass", pass);
  w.kv("s", seconds);
  w.end_object();
  emit(w);
}

/// The oracle's view of a BmcResult or an api::CheckResult (which share
/// their status type and verdict fields).
template <typename Result>
Outcome outcome_of(const Result& res) {
  Outcome out;
  out.cex = res.status == bmc::BmcResult::Status::CounterexampleFound;
  out.bound = res.status == bmc::BmcResult::Status::BoundReached;
  out.cex_depth = res.counterexample_depth;
  out.last_completed = res.last_completed_depth;
  out.trace = res.counterexample ? &*res.counterexample : nullptr;
  return out;
}

/// Opens a "check" record with the fields every closed-loop workload
/// shares; the caller adds its own and closes it.
void begin_check(JsonWriter& w, int pass, int id, const std::string& row,
                 const std::string& policy, double wall,
                 const std::string& error) {
  w.begin_object();
  w.kv("kind", "check");
  w.kv("pass", pass);
  w.kv("id", id);
  w.kv("row", row);
  w.kv("policy", policy);
  w.kv("wall_s", wall);
  w.kv("error", error);
}

/// Setup is repeated `reps` times (so setup_s is a median, not a single
/// sample); the last repetition's state is kept for the timed phase.
/// `make(gen_s)` builds the state and adds its model-generation time to
/// `gen_s`.
template <typename State, typename Make>
State timed_setup(int reps, Make make) {
  std::optional<State> state;
  for (int r = 0; r < reps; ++r) {
    emit_calib(-1);
    state.reset();  // tear the previous repetition down, untimed
    double gen = 0.0;
    const double t0 = now_s();
    state.emplace(make(gen));
    emit_setup(now_s() - t0, gen);
  }
  return std::move(*state);
}

/// Runs `f` and adds its wall time to `acc`.
template <typename F>
auto timed(double& acc, F f) {
  const double t0 = now_s();
  auto out = f();
  acc += now_s() - t0;
  return out;
}

template <typename Rows>
std::vector<const model::Benchmark*> pointers(const Rows& rows) {
  std::vector<const model::Benchmark*> out;
  for (const auto& r : rows) out.push_back(&r);
  return out;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  int passes = 1;
  bool trace = false;
  std::string socket_path;
};

// Set-ups per run: setup_s is their median.
constexpr int kSetupReps = 15;

/// Runs `pass(p, record)` config.passes times, emitting one "pass" record
/// each (wall, CPU, plus what the pass adds); under --trace 1 pass 0 is
/// the untraced reference.
template <typename Pass>
void run_passes(const Config& cfg, Pass pass) {
  for (int p = 0; p < cfg.passes; ++p) {
    g_spans.set_active(cfg.trace && p > 0);
    JsonWriter w;
    w.begin_object();
    w.kv("kind", "pass");
    w.kv("pass", p);
    w.kv("traced", g_spans.active());
    const double c0 = cpu_s();
    const double t0 = now_s();
    {
      Scope s("pass");
      pass(p, w);  // adds the workload's pass summary to the record
    }
    w.kv("wall_s", now_s() - t0);
    w.kv("cpu_s", cpu_s() - c0);
    w.end_object();
    emit(w);
  }
  g_spans.set_active(false);
}

// ---- table1 ------------------------------------------------------------------

constexpr bmc::OrderingPolicy kTable1Policies[] = {
    bmc::OrderingPolicy::Baseline, bmc::OrderingPolicy::Static,
    bmc::OrderingPolicy::Dynamic};
// Table 1's timeout, as a per-depth conflict count so that it falls at the
// same place on every run; on the standard suite it caps exactly the two
// "(15)" checks, arb16 and arb12+d32 under static.
constexpr std::int64_t kConflictCap = 20000;

int run_table1(const Config& cfg) {
  using Rows = std::vector<model::Benchmark>;
  const Rows rows = timed_setup<Rows>(kSetupReps, [&](double& gen) {
    return timed(gen, [&] { return seeded_suite(cfg.seed); });
  });
  if (!emit_parse(pointers(rows))) return 1;
  int check_id = 0;
  run_passes(cfg, [&](int pass, JsonWriter& summary) {
    double total[3] = {0, 0, 0};
    int wins[3] = {0, 0, 0};
    int capped_rows = 0, capped_checks = 0, disagreements = 0;
    for (const model::Benchmark& bm : rows) {
      bmc::BmcResult results[3];
      bool capped[3] = {false, false, false};
      for (int p = 0; p < 3; ++p) {
        const int id = check_id++;
        emit_calib(pass);
        bmc::EngineConfig ec;
        ec.policy = kTable1Policies[p];
        ec.max_depth = bm.suggested_bound;
        ec.validate_counterexamples = true;
        ec.per_instance_conflict_limit = kConflictCap;
        const double t0 = now_s();
        {
          Scope s("bmc.engine", id);
          bmc::BmcEngine engine(bm.net, ec);
          results[p] = engine.run();
        }
        const double wall = now_s() - t0;
        const bmc::BmcResult& res = results[p];
        capped[p] = res.status == bmc::BmcResult::Status::ResourceLimit;
        std::string why;
        {
          Scope s("oracle", id);
          why = oracle(bm, bm.suggested_bound, outcome_of(res), capped[p]);
        }
        capped_checks += capped[p] ? 1 : 0;
        emit_op(pass, wall);
        JsonWriter w;
        begin_check(w, pass, id, bm.name, bmc::to_string(kTable1Policies[p]),
                    wall, why);
        w.kv("capped", capped[p]);
        DepthTotals(res.per_depth).write(w);
        w.end_object();
        emit(w);
      }
      // Table 1's rule: compare at the deepest depth every policy
      // completed when any policy was capped, else over the whole run.
      const bool any_capped = capped[0] || capped[1] || capped[2];
      int compared = 1 << 30;
      if (any_capped) {
        ++capped_rows;
        for (const auto& res : results)
          compared = std::min(compared, res.last_completed_depth);
      } else if (results[0].status != results[1].status ||
                 results[0].status != results[2].status ||
                 results[0].counterexample_depth !=
                     results[1].counterexample_depth ||
                 results[0].counterexample_depth !=
                     results[2].counterexample_depth) {
        ++disagreements;
      }
      double t[3];
      for (int p = 0; p < 3; ++p) {
        t[p] = DepthTotals(results[p].per_depth, compared).solve_s;
        total[p] += t[p];
      }
      for (int p = 1; p < 3; ++p) wins[p] += t[p] < t[0] ? 1 : 0;
    }
    summary.kv("total_baseline_s", total[0]);
    summary.kv("total_static_s", total[1]);
    summary.kv("total_dynamic_s", total[2]);
    summary.kv("ratio_static", total[1] / total[0]);
    summary.kv("ratio_dynamic", total[2] / total[0]);
    summary.kv("wins_static", wins[1]);
    summary.kv("wins_dynamic", wins[2]);
    summary.kv("capped_rows", capped_rows);
    summary.kv("capped_checks", capped_checks);
    summary.kv("disagreements", disagreements);
  });
  return 0;
}

// ---- deep-incremental -----------------------------------------------------------

struct DeepRow {
  int spec;     // index into suite_specs()
  int depth;    // unrolling bound
  bool reseed;  // take the benchmark seed's distractor
};

// Five passing rows unrolled deep (encoding-dominated) and two
// search-heavy rows kept shallow.  The search-heavy rows keep their
// standard-suite distractor: across distractor seeds their search swings
// from 50k to 210k conflicts, which would make the seed, not the code,
// set this workload's time.
constexpr DeepRow kDeepRows[] = {
    {21, 120, true},  // fifo5+d24
    {20, 120, true},  // fifo4+d32
    {25, 120, true},  // peterson+d32
    {6, 120, true},   // cntm12_m3000+d48
    {36, 120, true},  // needle10_8_A24_B30+d32
    {15, 18, false},  // arb8+d24
    {16, 18, false},  // arb12+d32
};

int run_deep(const Config& cfg) {
  using Rows = std::vector<model::Benchmark>;
  const Rows rows = timed_setup<Rows>(kSetupReps, [&](double& gen) {
    return timed(gen, [&] {
      Rows out;
      for (const DeepRow& r : kDeepRows)
        out.push_back(build_row(suite_specs()[r.spec], r.reseed ? cfg.seed : 0));
      return out;
    });
  });
  if (!emit_parse(pointers(rows))) return 1;
  int check_id = 0;
  run_passes(cfg, [&](int pass, JsonWriter&) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const model::Benchmark& bm = rows[i];
      const int bound = kDeepRows[i].depth;
      const int id = check_id++;
      emit_calib(pass, 15);
      api::CheckRequest req;
      req.net = bm.net;
      req.name = bm.name;
      req.options.policy("dynamic").incremental(true).max_depth(bound);
      // Per-depth latency: the wall time between successive completed
      // depths (one entrant, so the hook fires on the calling thread).
      std::vector<double> depth_done;
      depth_done.reserve(static_cast<std::size_t>(bound) + 1);
      api::CheckHooks hooks;
      hooks.on_depth = [&](const bmc::DepthStats&) {
        depth_done.push_back(now_s());
      };
      const double t0 = now_s();
      api::CheckResult res;
      {
        Scope s("api.check", id);
        res = api::check(req, hooks);
      }
      const double wall = now_s() - t0;
      double prev = t0;
      for (const double t : depth_done) {
        emit_op(pass, t - prev);
        prev = t;
      }
      std::string why;
      {
        Scope s("oracle", id);
        why = oracle(bm, bound, outcome_of(res));
      }
      JsonWriter w;
      begin_check(w, pass, id, bm.name, "dynamic", wall, why);
      DepthTotals(res.per_depth).write(w);
      w.end_object();
      emit(w);
    }
  });
  return 0;
}

// ---- race ----------------------------------------------------------------------

constexpr int kRaceVariants = 3;

int run_race(const Config& cfg) {
  using Rows = std::vector<model::Benchmark>;  // 37 rows x kRaceVariants
  const Rows rows = timed_setup<Rows>(kSetupReps, [&](double& gen) {
    return timed(gen, [&] {
      Rows out;
      for (int v = 0; v < kRaceVariants; ++v)
        for (const RowSpec& spec : suite_specs())
          out.push_back(build_row(spec, cfg.seed, v + 1));
      return out;
    });
  });
  if (!emit_parse(pointers(rows))) return 1;
  int check_id = 0;
  run_passes(cfg, [&](int pass, JsonWriter&) {
    for (const model::Benchmark& bm : rows) {
      const int id = check_id++;
      emit_calib(pass);
      api::CheckRequest req;
      req.net = bm.net;
      req.name = bm.name;
      req.options.policies({"baseline", "static", "dynamic", "evsids"})
          .threads(4)
          .share(true)
          .share_rank(true)
          .max_depth(bm.suggested_bound);
      const double c0 = cpu_s();
      const double t0 = now_s();
      api::CheckResult res;
      {
        Scope s("api.check", id);
        res = api::check(req);
      }
      const double wall = now_s() - t0;
      const double cpu = cpu_s() - c0;
      // Hand the race's freed memory back before the next one, so the
      // process high-water mark is set by the largest race rather than
      // by how the allocator spread earlier races over per-thread arenas.
      malloc_trim(0);
      emit_op(pass, wall);
      std::string why;
      {
        Scope s("oracle", id);
        why = oracle(bm, bm.suggested_bound, outcome_of(res));
      }
      const DepthTotals totals(res.per_depth);
      JsonWriter w;
      begin_check(w, pass, id, bm.name, res.winner_policy, wall, why);
      w.kv("cpu_s", cpu);
      // The winner's own work: every phase of every depth it completed.
      w.kv("winner_work_s", us_to_s(totals.prepare_us + totals.solve_us));
      w.kv("cancel_latency_us", res.cancel_latency_us);
      w.kv("clauses_exported", res.clauses_exported);
      w.kv("clauses_imported", res.clauses_imported);
      w.kv("race_published", res.ranks_published);
      w.kv("race_refreshes", res.rank_refreshes);
      totals.write(w);
      w.end_object();
      emit(w);
    }
  });
  return 0;
}

// ---- serve ----------------------------------------------------------------------

// Cheap suite rows the service solves cold in milliseconds; every one
// either fails at a fixed depth or holds at every depth, so a deeper
// resubmission keeps its expected verdict.
constexpr int kServeSpecs[] = {4, 7, 9, 10, 12, 17, 18, 22, 27, 28, 33};
constexpr int kServeDistractorRegs = 4;
constexpr int kWorkers = 2;

enum class JobKind { Hit, Fresh, Deeper };

const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::Hit: return "hit";
    case JobKind::Fresh: return "fresh";
    case JobKind::Deeper: return "deeper";
  }
  return "?";
}

struct PlannedJob {
  JobKind kind = JobKind::Hit;
  int model = 0;  // index into ServeState::models
  int depth = 0;
};

struct ServeModel {
  model::Benchmark bm;
  std::string aiger;
  // Cold verdict recorded while readying the cache (hit set only).
  std::string verdict;
  int cex_depth = -1;
};

struct LadderStep {
  double rate = 0.0;  // offered jobs per second
  int jobs = 0;
};

// Offered rates, low to high; the first is the nominal rate.  Every step
// offers a fixed number of jobs, so the offered work is the same on
// every run whatever the service's capacity.
constexpr LadderStep kLadder[] = {
    {25, 200}, {50, 200}, {75, 200}, {110, 200}, {160, 200}, {240, 200},
    {360, 200},
};

// Members are destroyed bottom-up: clients, then the socket, then the
// server — the only order in which nothing waits on a closed peer.
struct ServeState {
  std::unique_ptr<service::JobServer> server;
  std::unique_ptr<service::SocketServer> socket;
  std::unique_ptr<service::Client> submitter, waiter;
  std::vector<ServeModel> models;  // the hit set first, then fresh netlists
  std::size_t hit_models = 0;
  /// plans[pass][step]: the jobs of one ladder step, in sending order.
  std::vector<std::vector<std::vector<PlannedJob>>> plans;
};

api::RaceOptions serve_options(int depth) {
  api::RaceOptions o;
  o.policy("dynamic").max_depth(depth);
  return o;
}

/// Parses a wire trace back into a bmc::Trace for replay.
bmc::Trace parse_trace(const service::JsonValue& t) {
  bmc::Trace tr;
  tr.depth = static_cast<int>(t.get_int("depth", -1));
  tr.bad_frame = static_cast<int>(t.get_int("bad_frame", -1));
  for (const char c : t.get_string("initial_latches"))
    tr.initial_latches.push_back(c == '1');
  if (const service::JsonValue* in = t.find("inputs")) {
    for (const service::JsonValue& f : in->items()) {
      std::vector<bool> frame;
      for (const char c : f.as_string()) frame.push_back(c == '1');
      tr.inputs.push_back(std::move(frame));
    }
  }
  return tr;
}

/// Generates every netlist the run will submit and plans each step as a
/// seeded shuffle of an exact 55/30/15 mix of identical resubmissions
/// (cache hits), fresh netlists (cold solves) and deeper resubmissions
/// (rank warm starts, cache bypassed so each one solves).
void plan_serve(ServeState& s, const Config& cfg) {
  const std::vector<RowSpec>& specs = suite_specs();
  std::mt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 7);
  for (const int idx : kServeSpecs) {
    ServeModel m;
    m.bm = build_row(specs[static_cast<std::size_t>(idx)], cfg.seed);
    s.models.push_back(std::move(m));
  }
  s.hit_models = s.models.size();
  int fresh_seq = 0;
  for (int pass = 0; pass < cfg.passes; ++pass) {
    std::vector<std::vector<PlannedJob>> steps;
    for (const LadderStep& step : kLadder) {
      // Rows go round-robin within each kind, so every step has the same
      // composition; the seed sets the order and the fresh distractors.
      const int hits = step.jobs * 55 / 100;
      const int fresh = step.jobs * 30 / 100;
      const int hit_models = static_cast<int>(s.hit_models);
      std::vector<PlannedJob> plan;
      for (int j = 0; j < step.jobs; ++j) {
        PlannedJob job;
        const int i = j < hits ? j : j < hits + fresh ? j - hits : j - hits - fresh;
        const int h = i % hit_models;
        const model::Benchmark& base = s.models[static_cast<std::size_t>(h)].bm;
        job.kind = j < hits ? JobKind::Hit
                   : j < hits + fresh ? JobKind::Fresh
                                      : JobKind::Deeper;
        if (job.kind == JobKind::Fresh) {
          ServeModel m;
          m.bm = fresh_variant(specs[static_cast<std::size_t>(kServeSpecs[h])],
                               kServeDistractorRegs, cfg.seed, ++fresh_seq);
          job.model = static_cast<int>(s.models.size());
          job.depth = m.bm.suggested_bound;
          s.models.push_back(std::move(m));
        } else {
          job.model = h;
          job.depth = base.suggested_bound;
          if (job.kind == JobKind::Deeper) job.depth += 1 + (i / hit_models) % 4;
        }
        plan.push_back(job);
      }
      std::shuffle(plan.begin(), plan.end(), rng);
      steps.push_back(std::move(plan));
    }
    s.plans.push_back(std::move(steps));
  }
  for (ServeModel& m : s.models) m.aiger = model::to_aiger_string(m.bm.net);
}

ServeState make_serve(const Config& cfg, double& gen, std::string* error) {
  ServeState s;
  timed(gen, [&] {
    plan_serve(s, cfg);
    return 0;
  });
  service::ServerConfig sc;
  sc.workers = kWorkers;
  sc.queue_capacity = 4096;
  sc.cache_capacity = 4096;
  s.server = std::make_unique<service::JobServer>(sc);
  s.socket = std::make_unique<service::SocketServer>(*s.server, cfg.socket_path);
  s.submitter = std::make_unique<service::Client>();
  s.waiter = std::make_unique<service::Client>();
  if (!s.socket->start(error) || !s.submitter->connect(cfg.socket_path, error) ||
      !s.waiter->connect(cfg.socket_path, error))
    return {};
  // Cache readiness: solve the hit set once so every timed identical
  // resubmission is a cache hit from the first job on.
  for (std::size_t i = 0; i < s.hit_models; ++i) {
    ServeModel& m = s.models[i];
    service::Client::SubmitArgs args;
    args.aiger = m.aiger;
    args.name = m.bm.name;
    args.wait = true;
    args.options = serve_options(m.bm.suggested_bound);
    const auto resp = s.submitter->submit(args, error);
    const service::JsonValue* status = resp ? resp->find("status") : nullptr;
    const service::JsonValue* result =
        status != nullptr ? status->find("result") : nullptr;
    if (result == nullptr) {
      if (error != nullptr && error->empty())
        *error = "cache warm-up of " + m.bm.name + " returned no result";
      return {};
    }
    m.verdict = result->get_string("verdict");
    m.cex_depth = static_cast<int>(result->get_int("counterexample_depth"));
  }
  return s;
}

/// One ladder step, open loop: the generator sends each job at its due
/// time whatever the backlog, a second connection collects the final
/// statuses, and every job is then checked and emitted.
void run_step(ServeState& st, int pass, int step_index, int& job_seq) {
  const LadderStep& step = kLadder[step_index];
  const std::vector<PlannedJob>& plan =
      st.plans[static_cast<std::size_t>(pass)][static_cast<std::size_t>(step_index)];
  struct Sent {
    double due = 0, sent = 0, ack = 0;
    service::JobId id = 0;
    bool accepted = false;
  };
  std::vector<Sent> sent(plan.size());
  std::vector<std::optional<service::JsonValue>> finals(plan.size());
  std::atomic<std::size_t> published{0};
  // The waiter blocks on each job in submission order; latencies come
  // from the server's own queue/run split, so the order inflates none.
  std::thread waiter([&] {
    for (std::size_t j = 0; j < plan.size(); ++j) {
      while (published.load(std::memory_order_acquire) <= j)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (sent[j].accepted) finals[j] = st.waiter->wait(sent[j].id);
    }
  });
  Scope step_scope("service.step");
  const double start = now_s() + 0.01;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const PlannedJob& job = plan[j];
    const double due = start + static_cast<double>(j) / step.rate;
    double now = now_s();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = now_s();
    }
    const ServeModel& m = st.models[static_cast<std::size_t>(job.model)];
    service::Client::SubmitArgs args;
    args.aiger = m.aiger;
    args.name = m.bm.name;
    args.use_cache = job.kind != JobKind::Deeper;
    args.options = serve_options(job.depth);
    std::optional<service::JsonValue> resp;
    {
      Scope s("service.submit", job_seq + static_cast<int>(j));
      resp = st.submitter->submit(args);
    }
    Sent& out = sent[j];
    out.due = due;
    out.sent = now;
    out.ack = now_s();
    out.accepted = resp && resp->get_bool("accepted");
    out.id = resp ? resp->get_uint64("id") : 0;
    published.store(j + 1, std::memory_order_release);
  }
  waiter.join();
  const double drained = now_s();

  for (std::size_t j = 0; j < plan.size(); ++j) {
    const PlannedJob& job = plan[j];
    const ServeModel& m = st.models[static_cast<std::size_t>(job.model)];
    const service::JsonValue* status =
        finals[j] ? finals[j]->find("status") : nullptr;
    const service::JsonValue* result =
        status != nullptr ? status->find("result") : nullptr;
    std::string why;
    bool from_cache = false;
    if (!sent[j].accepted) {
      why = "rejected";
    } else if (result == nullptr || status->get_string("state") != "done") {
      why = "job ended " +
            (status != nullptr ? status->get_string("state") : std::string("?"));
    } else {
      from_cache = result->get_bool("from_cache");
      const std::string verdict = result->get_string("verdict");
      bmc::Trace trace;
      Outcome out;
      out.cex = verdict == "cex";
      out.bound = verdict == "bound";
      out.cex_depth = static_cast<int>(result->get_int("counterexample_depth"));
      out.last_completed = static_cast<int>(result->get_int("last_completed_depth"));
      if (const service::JsonValue* t = result->find("trace")) {
        trace = parse_trace(*t);
        out.trace = &trace;
      }
      why = oracle(m.bm, job.depth, out);
      if (why.empty() && job.kind == JobKind::Hit) {
        if (!from_cache)
          why = "identical resubmission missed the cache";
        else if (verdict != m.verdict || out.cex_depth != m.cex_depth)
          why = "cached verdict differs from the cold one";
      }
    }
    // Layer counters come from the in-process server's JobStatus (the
    // wire carries no per-depth series).
    const std::optional<service::JobStatus> local =
        sent[j].accepted ? st.server->poll(sent[j].id) : std::nullopt;
    JsonWriter w;
    w.begin_object();
    w.kv("kind", "job");
    w.kv("pass", pass);
    w.kv("step", step_index);
    w.kv("rate", step.rate);
    w.kv("job_kind", to_string(job.kind));
    w.kv("row", m.bm.name);
    w.kv("due", sent[j].due);
    w.kv("sent", sent[j].sent);
    w.kv("ack", sent[j].ack);
    w.kv("queue_s", status != nullptr ? status->get_number("queue_sec") : 0.0);
    w.kv("run_s", status != nullptr ? status->get_number("run_sec") : 0.0);
    w.kv("from_cache", from_cache);
    w.kv("error", why);
    if (local) {
      w.kv("check_wall_s", from_cache ? 0.0 : local->result.wall_time_sec);
      if (!from_cache) DepthTotals(local->result.per_depth).write(w);
    }
    w.end_object();
    emit(w);
  }
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "step");
  w.kv("pass", pass);
  w.kv("step", step_index);
  w.kv("rate", step.rate);
  w.kv("jobs", static_cast<int>(plan.size()));
  w.kv("start", start);
  w.kv("drained", drained);
  w.end_object();
  emit(w);
  job_seq += static_cast<int>(plan.size());
}

int run_serve(Config cfg) {
  std::string error;
  auto st = timed_setup<ServeState>(kSetupReps, [&](double& gen) {
    return make_serve(cfg, gen, &error);
  });
  if (!st.server) {
    emit_error("serve setup failed: " + error);
    return 1;
  }
  {
    std::vector<const model::Benchmark*> models;
    for (const ServeModel& m : st.models) models.push_back(&m.bm);
    if (!emit_parse(models)) return 1;
  }
  int job_seq = 0;
  run_passes(cfg, [&](int pass, JsonWriter& summary) {
    const service::JobServer::Stats before = st.server->stats();
    for (int si = 0; si < static_cast<int>(std::size(kLadder)); ++si) {
      emit_calib(pass, 15);
      run_step(st, pass, si, job_seq);
    }
    const service::JobServer::Stats after = st.server->stats();
    summary.kv("cache_hits", after.cache_hits - before.cache_hits);
    summary.kv("cache_misses", after.cache_misses - before.cache_misses);
    summary.kv("rank_warm_starts", after.rank_warm_starts - before.rank_warm_starts);
    summary.kv("rejected", after.rejected - before.rejected);
  });
  return 0;
}

int run(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  Config cfg;
  cfg.workload = opts.get("workload");
  cfg.seed = std::stoull(opts.get("seed", "0"));
  cfg.passes = std::max(1, opts.get_int("passes", 1));
  cfg.trace = opts.get_int("trace", 0) != 0;
  cfg.socket_path = opts.get("socket", "perfbench-" + std::to_string(getpid()) + ".sock");
  if (cfg.trace) cfg.passes = std::max(cfg.passes, 2);

  calibrate();  // builds the ring outside any timing
  if (!mirrors_standard_suite()) {
    emit_error("seed 0 no longer reproduces model::standard_suite()");
    return 1;
  }
  int rc = 2;
  if (cfg.workload == "table1") rc = run_table1(cfg);
  else if (cfg.workload == "deep-incremental") rc = run_deep(cfg);
  else if (cfg.workload == "race") rc = run_race(cfg);
  else if (cfg.workload == "serve") rc = run_serve(cfg);
  else emit_error("unknown workload '" + cfg.workload + "'");
  emit_rss();
  g_spans.flush();
  std::fflush(stdout);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
