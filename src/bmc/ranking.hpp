// Accumulation and projection of the refined decision ordering (§3.2).
//
// After BMC instance j is proven unsatisfiable, the variables of its unsat
// core are projected onto the model ("register") axis via the instance's
// origin map, and each touched node's score is bumped:
//
//     bmc_score(x) = Σ_j in_unsat(x, j) · w(j)
//
// with the paper's weighting w(j) = j: recent cores (higher correlation
// with the next instance) weigh more, but no single core is trusted
// exclusively.  Alternative weightings are provided for the ablation
// bench.  For a new instance, per-CNF-variable ranks are produced by
// looking every variable's nodes up in the accumulated map.
//
// Alias discipline.  With frame-wise simplification a CNF variable may
// stand for several model nodes: its owner plus every (node, frame) the
// encoder folded, strashed or latch-aliased onto it (OriginMap,
// cnf.hpp; encoder.hpp).  Both directions of the projection walk that
// whole node set:
//   * core → model: a core variable touches its owner node AND every
//     alias node (the auxiliary false variable thus touches every node
//     folded to a constant), so cores keep scoring the state nodes
//     simplification folded away;
//   * model → CNF: a variable's rank is the SUM of the scores of all the
//     nodes it stands for — a variable that carries several scored nodes
//     decides all of them at once.
// Without simplification no variable has aliases, and both directions
// reduce to the owner lookup of the paper.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bmc/cnf.hpp"
#include "sat/types.hpp"

namespace refbmc::bmc {

enum class CoreWeighting {
  Linear,    // w(j) = j — the paper's choice
  Uniform,   // w(j) = 1 — every core counts the same
  LastOnly,  // only the most recent core is kept
  ExpDecay,  // score := score/2 before each update, w(j) = 1
};

inline const char* to_string(CoreWeighting w) {
  switch (w) {
    case CoreWeighting::Linear: return "linear";
    case CoreWeighting::Uniform: return "uniform";
    case CoreWeighting::LastOnly: return "last-only";
    case CoreWeighting::ExpDecay: return "exp-decay";
  }
  return "?";
}

/// All weightings, in enum order — the canonical iteration set for the
/// ablation bench and CLI enumeration.
inline constexpr std::array<CoreWeighting, 4> all_core_weightings() {
  return {CoreWeighting::Linear, CoreWeighting::Uniform,
          CoreWeighting::LastOnly, CoreWeighting::ExpDecay};
}

/// Inverse of to_string: parses a weighting name (exactly as printed).
/// Returns nullopt for unknown names.
std::optional<CoreWeighting> parse_core_weighting(std::string_view name);

/// Projects a core's CNF variables onto the model axis through `origin`:
/// one entry per touched node, owners and aliases alike (in_unsat(x, j)
/// is 0/1 per instance), the constant node skipped.  The single
/// projection discipline every accumulation — engine-private CoreRanking
/// and the race-shared SharedRankSource alike — builds on, so the two
/// can never diverge.
std::unordered_set<model::NodeId> core_nodes(
    const OriginMap& origin, const std::vector<sat::Var>& core_vars);

class CoreRanking {
 public:
  explicit CoreRanking(CoreWeighting weighting = CoreWeighting::Linear)
      : weighting_(weighting) {}

  /// Rebuilds a ranking from externally accumulated state — snapshot
  /// support for the shared rank source (rank_source.hpp), whose merged
  /// node-axis scores live behind a mutex rather than in a CoreRanking.
  CoreRanking(CoreWeighting weighting,
              std::unordered_map<model::NodeId, double> scores,
              std::size_t num_updates)
      : weighting_(weighting),
        scores_(std::move(scores)),
        num_updates_(num_updates) {}

  /// Records the unsat core of instance `k` (depth of the BMC problem):
  /// `core_vars` are CNF variables whose model nodes are read off
  /// `origin` (owner plus aliases); they are deduplicated on the model
  /// axis before scoring (in_unsat(x, j) is 0/1 per instance).  Returns
  /// the number of model nodes the core touched.
  std::size_t update(const OriginMap& origin,
                     const std::vector<sat::Var>& core_vars, int k);
  std::size_t update(const BmcInstance& inst,
                     const std::vector<sat::Var>& core_vars, int k) {
    return update(inst.origin, core_vars, k);
  }

  /// Per-CNF-variable ranks for a (new or extended) variable set: each
  /// variable gets the sum of the scores of the nodes it stands for.
  std::vector<double> project(const OriginMap& origin) const;
  std::vector<double> project(const BmcInstance& inst) const {
    return project(inst.origin);
  }

  double node_score(model::NodeId node) const;
  const std::unordered_map<model::NodeId, double>& scores() const {
    return scores_;
  }
  std::size_t num_updates() const { return num_updates_; }
  CoreWeighting weighting() const { return weighting_; }

 private:
  CoreWeighting weighting_;
  std::unordered_map<model::NodeId, double> scores_;
  std::size_t num_updates_ = 0;
};

}  // namespace refbmc::bmc
