// Temporal induction (k-induction, Sheeran–Singh–Stålmarck; incremental
// formulation after Eén–Sörensson [5] of the paper's related work).
//
// BMC alone refutes properties; k-induction also *proves* them:
//   base(k):  I(V⁰) ∧ ⋀T ∧ bad(Vᵏ)                  — SAT ⇒ counter-example
//   step(k):  ⋀_{0..k} T ∧ ¬bad(V⁰..Vᵏ⁻¹) ∧ bad(Vᵏ)  — UNSAT ⇒ P proved
// (no initial-state constraint in the step; with pairwise state-
// distinctness ["simple path"] constraints the method is complete).
//
// The refined decision ordering applies here exactly as in BMC: the step
// instances for growing k form another highly correlated UNSAT sequence,
// so their cores feed a second CoreRanking — the generalisation the
// paper's conclusion anticipates ("other SAT-based problems ... with a
// similar incremental nature").
#pragma once

#include <memory>
#include <optional>

#include "bmc/engine.hpp"
#include "bmc/ranking.hpp"
#include "bmc/tape.hpp"
#include "bmc/trace.hpp"
#include "model/netlist.hpp"

namespace refbmc::bmc {

struct InductionConfig {
  /// Ordering policy for both the base and step solvers (Shtrichman is
  /// not supported here).
  OrderingPolicy policy = OrderingPolicy::Dynamic;
  CoreWeighting weighting = CoreWeighting::Linear;
  int max_k = 20;
  /// Pairwise state-distinctness constraints on the step path; required
  /// for completeness, can be disabled to measure their cost.
  bool simple_path = true;
  /// Frame-wise formula simplification (see EngineConfig::simplify).
  bool simplify = true;
  int dynamic_switch_divisor = 64;
  bool validate_counterexamples = true;
  double total_time_limit_sec = -1.0;
  std::int64_t per_instance_conflict_limit = -1;
  sat::SolverConfig solver;
};

struct InductionResult {
  enum class Status {
    Proved,               // step(k) UNSAT: the invariant holds (all depths)
    CounterexampleFound,  // base(k) SAT
    BoundReached,         // neither within max_k
    ResourceLimit,
  };
  Status status = Status::BoundReached;
  /// The k at which the proof closed / the counter-example length.
  int k = -1;
  std::optional<Trace> counterexample;
  std::uint64_t base_decisions = 0;
  std::uint64_t step_decisions = 0;
  std::uint64_t base_conflicts = 0;
  std::uint64_t step_conflicts = 0;
  double total_time_sec = 0.0;
};

class InductionProver {
 public:
  InductionProver(const model::Netlist& net, InductionConfig config,
                  std::size_t bad_index = 0);

  InductionResult run();

  const CoreRanking& base_ranking() const { return base_ranking_; }
  const CoreRanking& step_ranking() const { return step_ranking_; }

 private:
  /// A per-k query: a fresh solver fed by replaying one of the two tapes
  /// (base: with I(V⁰); step: without), plus the property-shape clauses.
  struct SolveOutcome {
    sat::Result result;
    std::unique_ptr<sat::Solver> solver;  // alive for model extraction
    OriginMap origin;
  };
  SolveOutcome solve_instance(SharedTape& tape, int depth, bool is_step,
                              CoreRanking& ranking, int k,
                              std::uint64_t& decisions,
                              std::uint64_t& conflicts, double deadline_sec);

  const model::Netlist& net_;
  InductionConfig config_;
  std::size_t bad_index_;
  SharedTape base_tape_;  // frames with the initial-state predicate
  SharedTape step_tape_;  // frames with frame 0 unconstrained
  CoreRanking base_ranking_;
  CoreRanking step_ranking_;
};

/// Convenience wrapper.
InductionResult prove_invariant(const model::Netlist& net, int max_k,
                                OrderingPolicy policy = OrderingPolicy::Dynamic,
                                std::size_t bad_index = 0);

}  // namespace refbmc::bmc
