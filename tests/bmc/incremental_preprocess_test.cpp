// Incremental-session fast path (PR 8): activation-aware delta
// preprocessing, the assumption savepoint, and frame retirement.  The
// engine-level matrix pins verdict/depth equivalence with scratch mode
// across every knob combination; the bit-identity test pins the
// contract that both knobs off IS the PR 7 pipeline, counter for
// counter; the witness test drives the shared tape directly and proves
// a counter-example model of the delta-simplified formula recompletes
// over variables BVE eliminated at earlier depths.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bmc/encoder.hpp"
#include "bmc/engine.hpp"
#include "bmc/preprocess.hpp"
#include "bmc/tape.hpp"
#include "bmc/trace.hpp"
#include "model/benchgen.hpp"
#include "sat/solver.hpp"
#include "util/mem_tracker.hpp"

namespace refbmc::bmc {
namespace {

EngineConfig incremental_config(const model::Benchmark& bm, bool preprocess,
                                bool savepoint) {
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = bm.suggested_bound;
  cfg.incremental = true;
  cfg.preprocess.enabled = preprocess;
  cfg.solver.assumption_savepoint = savepoint;
  if (preprocess) cfg.solver.inprocess.vivify_interval = 4;
  return cfg;
}

TEST(IncrementalPreprocessTest, MatrixMatchesScratchOnQuickSuite) {
  // incremental × preprocess × savepoint, all four combinations per
  // model, against the scratch-mode reference: same verdict, same cex
  // depth, same last completed depth, and every trace replays on the
  // concrete simulator.
  for (const auto& bm : model::quick_suite()) {
    SCOPED_TRACE(bm.name);
    EngineConfig scratch;
    scratch.policy = OrderingPolicy::Dynamic;
    scratch.max_depth = bm.suggested_bound;
    const BmcResult a = BmcEngine(bm.net, scratch).run();
    for (const bool preprocess : {false, true}) {
      for (const bool savepoint : {false, true}) {
        SCOPED_TRACE(testing::Message() << "preprocess=" << preprocess
                                        << " savepoint=" << savepoint);
        const BmcResult b =
            BmcEngine(bm.net, incremental_config(bm, preprocess, savepoint))
                .run();
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.counterexample_depth, b.counterexample_depth);
        EXPECT_EQ(a.last_completed_depth, b.last_completed_depth);
        if (b.counterexample) {
          EXPECT_TRUE(validate_trace(bm.net, *b.counterexample));
        }
      }
    }
  }
}

TEST(IncrementalPreprocessTest, KnobsOffIsBitIdenticalToLegacyIncremental) {
  // `--preprocess off` + `--assumption-savepoint off` must reproduce the
  // PR 7 incremental pipeline counter for counter.  Both knobs default
  // off at the EngineConfig level, so the default-config run IS the
  // legacy path; the explicit-off run must match it per depth.
  for (const auto& bm :
       {model::fifo_safe(3), model::counter_reach(3, 2, false)}) {
    SCOPED_TRACE(bm.name);
    EngineConfig legacy;
    legacy.policy = OrderingPolicy::Dynamic;
    legacy.max_depth = bm.suggested_bound;
    legacy.incremental = true;
    EngineConfig off = incremental_config(bm, false, false);
    off.solver.inprocess.vivify_interval =
        legacy.solver.inprocess.vivify_interval;

    const BmcResult a = BmcEngine(bm.net, legacy).run();
    const BmcResult b = BmcEngine(bm.net, off).run();
    ASSERT_EQ(a.per_depth.size(), b.per_depth.size());
    for (std::size_t i = 0; i < a.per_depth.size(); ++i) {
      EXPECT_EQ(a.per_depth[i].decisions, b.per_depth[i].decisions) << i;
      EXPECT_EQ(a.per_depth[i].propagations, b.per_depth[i].propagations)
          << i;
      EXPECT_EQ(a.per_depth[i].conflicts, b.per_depth[i].conflicts) << i;
      // The fast-path counters must read zero with the knobs off.
      EXPECT_EQ(b.per_depth[i].savepoint_hits, 0u) << i;
      EXPECT_EQ(b.per_depth[i].savepoint_misses, 0u) << i;
      EXPECT_EQ(b.per_depth[i].retired_frame_clauses, 0u) << i;
    }
  }
}

TEST(IncrementalPreprocessTest, SavepointAndRetirementStatsFlow) {
  // On a passing property the session's assumption lists share all but
  // the newest guard level, so deep enough runs must record prefix
  // resumes — and the batched retirement flush must free the dead
  // guards' clauses out of the arena.
  const auto bm = model::fifo_safe(3);
  const BmcResult r =
      BmcEngine(bm.net, incremental_config(bm, true, true)).run();
  ASSERT_EQ(r.status, BmcResult::Status::BoundReached);
  std::uint64_t hits = 0, misses = 0, reused = 0, retired = 0;
  for (const auto& d : r.per_depth) {
    hits += d.savepoint_hits;
    misses += d.savepoint_misses;
    reused += d.savepoint_levels_reused;
    retired += d.retired_frame_clauses;
  }
  EXPECT_EQ(hits + misses, r.per_depth.size());  // one solve per depth
  EXPECT_GT(hits, 0u);
  EXPECT_GE(reused, hits);  // every hit reuses at least one level
  EXPECT_GT(retired, 0u);   // at least one batch flushed
}

TEST(IncrementalPreprocessTest, DeltaPreprocessStatsReported) {
  // With preprocessing on, incremental runs report the per-depth DELTA
  // pass counters (PR 7 zeroed these in incremental mode).
  const auto bm = model::counter_reach(4, 6, true);
  const BmcResult r =
      BmcEngine(bm.net, incremental_config(bm, true, true)).run();
  ASSERT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  std::uint64_t eliminated = 0;
  for (const auto& d : r.per_depth) eliminated += d.vars_eliminated;
  EXPECT_GT(eliminated, 0u);
}

/// Numbers variables densely from 0 and keeps every clause: replayed
/// plainly from a fresh cursor, its clauses are in tape space verbatim.
struct CollectSink final : public ClauseSink {
  std::vector<std::vector<sat::Lit>> clauses;
  sat::Var next = 0;
  sat::Var add_var(const VarOrigin&) override { return next++; }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses.emplace_back(lits.begin(), lits.end());
  }
};

/// Solves the delta-simplified formula of depth k (a fresh consumer
/// replaying deltas 0..k; under depth k's property literal when
/// `assume_property`), lifts the model to tape space and completes it
/// through `remap`; true when the result satisfies every clause of the
/// original tape up to depth k.
bool completed_model_satisfies_tape(SharedTape& tape, int k,
                                    const VarRemapper& remap,
                                    bool assume_property) {
  // Identity consumer: the unsimplified clauses, in tape space.
  ClauseTape::Cursor id_cursor;
  CollectSink original;
  tape.replay_to(k, id_cursor, original);

  sat::Solver solver;
  OriginMap origin;
  SolverSink sink(solver, origin);
  ClauseTape::Cursor cursor;
  for (int f = 0; f <= k; ++f) tape.replay_simplified_delta(f, cursor, sink);
  std::vector<sat::Lit> assumptions;
  if (assume_property)
    assumptions.push_back(cursor.translate(tape.property(k)));
  if (solver.solve(assumptions) != sat::Result::Sat) return false;

  std::vector<sat::lbool> values(static_cast<std::size_t>(remap.num_vars()),
                                 sat::l_Undef);
  for (std::size_t t = 0; t < cursor.var_map.size(); ++t) {
    if (cursor.var_map[t] == sat::kVarUndef) continue;
    values[t] = solver.model_value(cursor.var_map[t]);
  }
  remap.complete_model(values);
  for (const auto& clause : original.clauses) {
    bool satisfied = false;
    for (const sat::Lit l : clause) {
      if ((values[static_cast<std::size_t>(l.var())] ^ l.negated()) ==
          sat::l_True) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

bool lists_witness_of(const VarRemapper& remap, sat::Var v) {
  for (const auto& w : remap.witnesses())
    if (w.lit.var() == v) return true;
  return false;
}

TEST(IncrementalPreprocessTest, WitnessRecompletesAcrossDepthDeltas) {
  // A counter-example found at depth k on the delta-simplified formula
  // must extend — through the cumulative witness stack — to a model of
  // the ORIGINAL tape formula, including variables BVE eliminated at
  // depths < k.  Drives SharedTape directly: one identity consumer
  // collects the unsimplified clauses, a solver consumer replays the
  // simplified deltas.
  const auto bm = model::counter_reach(4, 6, true);
  ASSERT_TRUE(bm.expect_fail);
  const int k = bm.expect_depth;
  ASSERT_GE(k, 2);  // need eliminations at depths strictly below k

  PreprocessOptions popt;
  popt.enabled = true;
  SharedTape tape(bm.net, 0, {}, popt);
  const VarRemapper remap = tape.incremental_remapper_at(k);
  ASSERT_GT(remap.num_eliminated(), 0u);  // the test must not be vacuous
  EXPECT_TRUE(completed_model_satisfies_tape(tape, k, remap,
                                             /*assume_property=*/true));
}

TEST(IncrementalPreprocessTest, RemapperAtDepthIsExactAfterLaterResurrection) {
  // A fast consumer runs ahead to kDepth, resurrecting variables that
  // earlier deltas eliminated.  incremental_remapper_at(k) must still be
  // exactly the state a tape that never went past k holds — same kept
  // set, same witnesses in the same order — for every k; a witness
  // resurrected after k stays listed at k and vanishes from the
  // resurrection depth on; and a slow consumer's depth-k model completes
  // through it to a model of the original tape.
  const auto bm = model::with_distractor(model::fifo_safe(4), 32, 1);
  constexpr int kDepth = 10;
  PreprocessOptions popt;
  popt.enabled = true;
  SharedTape tape(bm.net, 0, {}, popt);

  CollectSink fast_sink;
  ClauseTape::Cursor fast;
  sat::Var resurrected = sat::kVarUndef;
  int resurrected_at = -1;
  for (int f = 0; f <= kDepth; ++f) {
    const std::vector<sat::Var> before = fast.var_map;
    tape.replay_simplified_delta(f, fast, fast_sink);
    for (std::size_t t = 0; t < before.size() && resurrected_at < 0; ++t) {
      if (before[t] == sat::kVarUndef && fast.var_map[t] != sat::kVarUndef) {
        resurrected = static_cast<sat::Var>(t);
        resurrected_at = f;
      }
    }
  }
  ASSERT_GT(resurrected_at, 0) << "no resurrection: the test is vacuous";

  for (int k = 0; k <= kDepth; ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    SharedTape slow(bm.net, 0, {}, popt);
    const VarRemapper want = slow.incremental_remapper_at(k);
    const VarRemapper got = tape.incremental_remapper_at(k);
    ASSERT_EQ(got.num_vars(), want.num_vars());
    ASSERT_EQ(got.num_eliminated(), want.num_eliminated());
    for (sat::Var v = 0; v < got.num_vars(); ++v)
      ASSERT_EQ(got.is_kept(v), want.is_kept(v)) << "var " << v;
    ASSERT_EQ(got.witnesses().size(), want.witnesses().size());
    for (std::size_t i = 0; i < got.witnesses().size(); ++i) {
      const auto& a = got.witnesses()[i];
      const auto& b = want.witnesses()[i];
      EXPECT_EQ(a.lit, b.lit) << "entry " << i;
      EXPECT_EQ(a.clauses, b.clauses) << "entry " << i;
      EXPECT_EQ(a.removed, b.removed) << "entry " << i;
      EXPECT_EQ(a.eliminated_at, b.eliminated_at) << "entry " << i;
      EXPECT_EQ(a.resurrected_at, VarRemapper::kNever) << "entry " << i;
    }
    const bool listed = k < resurrected_at && !got.is_kept(resurrected);
    EXPECT_EQ(lists_witness_of(got, resurrected), listed);
  }

  // The witness was live just before its resurrection, and the slow
  // consumer parked there completes through the rebuilt state.
  const int k = resurrected_at - 1;
  const VarRemapper at_k = tape.incremental_remapper_at(k);
  ASSERT_TRUE(lists_witness_of(at_k, resurrected));
  EXPECT_TRUE(completed_model_satisfies_tape(tape, k, at_k,
                                             /*assume_property=*/false));
  const VarRemapper at_r = tape.incremental_remapper_at(resurrected_at);
  EXPECT_TRUE(at_r.is_kept(resurrected));
  EXPECT_FALSE(lists_witness_of(at_r, resurrected));
}

/// A lower bound on the heap `remap`'s witnesses occupy: each entry,
/// and each of its clauses (kit halves included) with its literals.
std::size_t witness_bytes(const VarRemapper& remap) {
  std::size_t n = remap.witnesses().size() * sizeof(VarRemapper::Witness);
  for (const auto& w : remap.witnesses()) {
    for (const auto* list : {&w.clauses, &w.removed}) {
      for (const auto& c : *list)
        n += sizeof(c) + c.size() * sizeof(sat::Lit);
    }
  }
  return n;
}

TEST(IncrementalPreprocessTest, ChargedBytesGrowLinearlyWithDepth) {
  // The delta path keeps one witness history, not a copy per depth, so
  // the bytes the shared tape charges double (not quadruple) when the
  // unrolling doubles — and the charge covers that history, so the
  // tracker cannot read linear while the heap grows otherwise.
  // cntm12_m3000+d48 is deep-incremental's heaviest row.
  const auto bm =
      model::with_distractor(model::counter_safe(12, 3000, 4000), 48, 111);
  ASSERT_EQ(bm.name, "cntm12_m3000+d48");
  PreprocessOptions popt;
  popt.enabled = true;
  SharedTape tape(bm.net, 0, {}, popt);
  MemTracker mem;
  tape.set_mem_tracker(&mem);

  tape.incremental_preprocess_stats_at(60);
  const std::uint64_t at60 = mem.current();
  tape.incremental_preprocess_stats_at(120);
  const std::uint64_t at120 = mem.current();
  EXPECT_EQ(at120, tape.memory_bytes());
  EXPECT_GT(at60, 0u);
  EXPECT_GE(at120, witness_bytes(tape.incremental_remapper_at(120)));
  EXPECT_LE(at120, 3 * at60) << "depth 60: " << at60
                             << " B, depth 120: " << at120 << " B";
  tape.set_mem_tracker(nullptr);
}

/// The alias nodes of consumer variable `v` in `origin`, restricted to
/// aliases recorded before index `bound` (SIZE_MAX: all).
std::multiset<model::NodeId> alias_nodes(const OriginMap& origin, sat::Var v,
                                         std::size_t bound = SIZE_MAX) {
  std::multiset<model::NodeId> nodes;
  origin.for_each_alias(v, [&](std::size_t i, const VarOrigin& a) {
    if (i < bound) nodes.insert(a.node);
  });
  return nodes;
}

TEST(IncrementalPreprocessTest, AliasesFollowKeptVariablesThroughDeltas) {
  // Every variable a delta-simplified consumer holds carries exactly the
  // aliases its tape variable had by then — those of variables BVE
  // eliminated are dropped, and re-attached when a later delta
  // resurrects the variable.  A plain replay into a fresh solver numbers
  // variables like the tape, so its OriginMap is the tape-space truth.
  const auto bm = model::with_distractor(model::fifo_safe(4), 32, 1);
  constexpr int kDepth = 10;
  PreprocessOptions popt;
  popt.enabled = true;
  SharedTape tape(bm.net, 0, {}, popt);

  sat::Solver plain_solver;
  OriginMap truth;
  SolverSink plain_sink(plain_solver, truth);
  ClauseTape::Cursor plain_cursor;
  tape.replay_to(kDepth, plain_cursor, plain_sink);
  ASSERT_GT(truth.num_aliases(), 0u);

  sat::Solver solver;
  OriginMap origin;
  SolverSink sink(solver, origin);
  ClauseTape::Cursor cursor;
  std::size_t resurrected = 0, dropped = 0;
  std::vector<sat::Var> before;
  for (int f = 0; f <= kDepth; ++f) {
    before = cursor.var_map;
    tape.replay_simplified_delta(f, cursor, sink);
    const std::size_t bound = tape.mark_at(f).aliases;
    std::size_t expected_aliases = 0;
    for (std::size_t t = 0; t < cursor.var_map.size(); ++t) {
      const auto tv = static_cast<sat::Var>(t);
      if (t < before.size() && before[t] == sat::kVarUndef &&
          cursor.var_map[t] != sat::kVarUndef &&
          !alias_nodes(truth, tv, bound).empty())
        ++resurrected;
      if (cursor.var_map[t] == sat::kVarUndef) {
        if (!alias_nodes(truth, tv, bound).empty()) ++dropped;
        continue;
      }
      const std::multiset<model::NodeId> want = alias_nodes(truth, tv, bound);
      expected_aliases += want.size();
      EXPECT_EQ(alias_nodes(origin, cursor.var_map[t]), want)
          << "depth " << f << ", tape var " << t;
    }
    EXPECT_EQ(origin.num_aliases(), expected_aliases) << "depth " << f;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(resurrected, 0u);

  // The scratch (whole-formula) simplified replay keeps the same rule.
  sat::Solver scratch_solver;
  OriginMap scratch;
  SolverSink scratch_sink(scratch_solver, scratch);
  ClauseTape::Cursor scratch_cursor;
  tape.replay_simplified_to(kDepth, scratch_cursor, scratch_sink);
  for (std::size_t t = 0; t < scratch_cursor.var_map.size(); ++t) {
    const sat::Var v = scratch_cursor.var_map[t];
    if (v == sat::kVarUndef) continue;
    EXPECT_EQ(alias_nodes(scratch, v),
              alias_nodes(truth, static_cast<sat::Var>(t)))
        << "tape var " << t;
  }
}

}  // namespace
}  // namespace refbmc::bmc
