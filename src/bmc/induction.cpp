#include "bmc/induction.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace refbmc::bmc {

using sat::Lit;

namespace {

EncoderOptions tape_options(bool constrain_init, bool simplify) {
  EncoderOptions opts;
  opts.mode = BadMode::Last;
  opts.constrain_init = constrain_init;
  opts.simplify = simplify;
  return opts;
}

/// Appends pairwise state-distinctness ("simple path") constraints over
/// the cone latches of frames 0..depth: for every frame pair i < j, at
/// least one latch differs.  Difference indicator d ↔ (a xor b) is
/// Tseitin-encoded in the direction the OR clause needs (d → a≠b).
void add_simple_path_constraints(SharedTape& tape, int depth,
                                 sat::Solver& solver,
                                 OriginMap& origin,
                                 const ClauseTape::Cursor& cursor) {
  std::vector<std::vector<Lit>> latches;
  for (int f = 0; f <= depth; ++f) {
    std::vector<Lit> frame = tape.latch_lits(f);
    for (Lit& l : frame) l = cursor.translate(l);
    latches.push_back(std::move(frame));
  }
  const auto new_aux = [&]() {
    origin.push_back(VarOrigin{model::kConstNode, -3});
    return solver.new_var();
  };
  for (int i = 0; i <= depth; ++i) {
    for (int j = i + 1; j <= depth; ++j) {
      const auto& li = latches[static_cast<std::size_t>(i)];
      const auto& lj = latches[static_cast<std::size_t>(j)];
      REFBMC_ASSERT(li.size() == lj.size());
      if (li.empty()) continue;  // no latches: every frame pair "equal"
      std::vector<Lit> any_diff;
      for (std::size_t l = 0; l < li.size(); ++l) {
        const Lit a = li[l];
        const Lit b = lj[l];
        const Lit d = Lit::make(new_aux());
        // d → (a ≠ b)
        solver.add_clause({~d, a, b});
        solver.add_clause({~d, ~a, ~b});
        any_diff.push_back(d);
      }
      solver.add_clause(any_diff);  // states at i and j differ
    }
  }
}

}  // namespace

InductionProver::InductionProver(const model::Netlist& net,
                                 InductionConfig config,
                                 std::size_t bad_index)
    : net_(net),
      config_(config),
      bad_index_(bad_index),
      base_tape_(net, bad_index, tape_options(true, config.simplify)),
      step_tape_(net, bad_index, tape_options(false, config.simplify)),
      base_ranking_(config.weighting),
      step_ranking_(config.weighting) {
  REFBMC_EXPECTS_MSG(config_.policy != OrderingPolicy::Shtrichman,
                     "induction does not support the Shtrichman ordering");
  REFBMC_EXPECTS(config_.max_k >= 0);
}

InductionProver::SolveOutcome InductionProver::solve_instance(
    SharedTape& tape, int depth, bool is_step, CoreRanking& ranking, int k,
    std::uint64_t& decisions, std::uint64_t& conflicts, double deadline_sec) {
  sat::SolverConfig scfg = config_.solver;
  switch (config_.policy) {
    case OrderingPolicy::Baseline:
      scfg.rank_mode = sat::RankMode::None;
      break;
    case OrderingPolicy::Static:
      scfg.rank_mode = sat::RankMode::Static;
      break;
    case OrderingPolicy::Dynamic:
      scfg.rank_mode = sat::RankMode::Dynamic;
      break;
    case OrderingPolicy::Replace:
      scfg.rank_mode = sat::RankMode::Replace;
      break;
    case OrderingPolicy::Shtrichman:
      REFBMC_ASSERT(false);
      break;
    case OrderingPolicy::Evsids:
      scfg.rank_mode = sat::RankMode::None;
      scfg.decision = sat::DecisionMode::Evsids;
      break;
  }
  scfg.dynamic_switch_divisor = config_.dynamic_switch_divisor;
  scfg.track_cdg = config_.policy != OrderingPolicy::Baseline &&
                   config_.policy != OrderingPolicy::Evsids;
  scfg.conflict_limit = config_.per_instance_conflict_limit;
  scfg.time_limit_sec = deadline_sec;

  SolveOutcome out{sat::Result::Unknown, std::make_unique<sat::Solver>(scfg),
                   {}};
  sat::Solver& solver = *out.solver;
  ClauseTape::Cursor cursor;
  SolverSink sink(solver, out.origin);
  tape.replay_to(depth, cursor, sink);

  if (is_step) {
    // step(k): ¬bad at frames 0..depth-1, bad at frame `depth` (= k+1).
    for (int f = 0; f < depth; ++f)
      solver.add_clause({~cursor.translate(tape.bad(f))});
    solver.add_clause({cursor.translate(tape.bad(depth))});
    if (config_.simple_path)
      add_simple_path_constraints(tape, depth, solver, out.origin, cursor);
  } else {
    // base(k): counter-example of length exactly `depth` (= k).
    solver.add_clause({cursor.translate(tape.bad(depth))});
  }

  if (scfg.rank_mode != sat::RankMode::None)
    solver.set_variable_rank(ranking.project(out.origin));

  out.result = solver.solve();
  decisions += solver.stats().decisions;
  conflicts += solver.stats().conflicts;
  if (out.result == sat::Result::Unsat && scfg.track_cdg)
    ranking.update(out.origin, solver.unsat_core_vars(), k);
  return out;
}

InductionResult InductionProver::run() {
  InductionResult result;
  Timer timer;
  const Deadline deadline(config_.total_time_limit_sec);

  for (int k = 0; k <= config_.max_k; ++k) {
    if (deadline.expired()) {
      result.status = InductionResult::Status::ResourceLimit;
      break;
    }
    const double remaining =
        config_.total_time_limit_sec > 0 ? deadline.remaining_sec() : -1.0;

    // ---- base(k): counter-example of length exactly k? ----------------
    {
      const SolveOutcome out =
          solve_instance(base_tape_, k, /*is_step=*/false, base_ranking_, k,
                         result.base_decisions, result.base_conflicts,
                         remaining);
      if (out.result == sat::Result::Sat) {
        Trace trace = extract_trace(net_, k, out.origin, *out.solver);
        if (config_.validate_counterexamples) {
          REFBMC_ASSERT_MSG(validate_trace(net_, trace, bad_index_),
                            "induction base case produced an invalid "
                            "counter-example");
        }
        result.status = InductionResult::Status::CounterexampleFound;
        result.k = k;
        result.counterexample = std::move(trace);
        result.total_time_sec = timer.elapsed_sec();
        return result;
      }
      if (out.result == sat::Result::Unknown) {
        result.status = InductionResult::Status::ResourceLimit;
        result.total_time_sec = timer.elapsed_sec();
        return result;
      }
    }

    // ---- step(k): unreachable-of-bad is k-inductive? --------------------
    {
      const SolveOutcome out =
          solve_instance(step_tape_, k + 1, /*is_step=*/true, step_ranking_,
                         k, result.step_decisions, result.step_conflicts,
                         remaining);
      if (out.result == sat::Result::Unsat) {
        result.status = InductionResult::Status::Proved;
        result.k = k;
        result.total_time_sec = timer.elapsed_sec();
        return result;
      }
      if (out.result == sat::Result::Unknown) {
        result.status = InductionResult::Status::ResourceLimit;
        result.total_time_sec = timer.elapsed_sec();
        return result;
      }
    }
  }

  if (result.status != InductionResult::Status::ResourceLimit)
    result.status = InductionResult::Status::BoundReached;
  result.total_time_sec = timer.elapsed_sec();
  return result;
}

InductionResult prove_invariant(const model::Netlist& net, int max_k,
                                OrderingPolicy policy,
                                std::size_t bad_index) {
  InductionConfig cfg;
  cfg.policy = policy;
  cfg.max_k = max_k;
  InductionProver prover(net, cfg, bad_index);
  return prover.run();
}

}  // namespace refbmc::bmc
