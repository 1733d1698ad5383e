#include "bmc/rank_source.hpp"

#include <cmath>
#include <unordered_set>

namespace refbmc::bmc {

std::size_t SharedRankSource::publish(const OriginMap& origin,
                                      const std::vector<sat::Var>& core_vars,
                                      int k) {
  // Project outside the lock, through the same discipline the
  // engine-private accumulation uses (ranking.cpp).
  const std::unordered_set<model::NodeId> touched =
      core_nodes(origin, core_vars);

  const std::lock_guard<std::mutex> lock(mu_);
  publishes_.fetch_add(1, std::memory_order_release);
  bool changed = false;
  switch (weighting_) {
    case CoreWeighting::Linear:
      for (const model::NodeId n : touched)
        scores_[n] += static_cast<double>(k);
      changed = !touched.empty() && k != 0;
      break;
    case CoreWeighting::Uniform:
      for (const model::NodeId n : touched) scores_[n] += 1.0;
      changed = !touched.empty();
      break;
    case CoreWeighting::LastOnly:
      // Depth-keyed, not arrival-keyed: keep the union of cores
      // published for the deepest depth seen so far.
      if (k > deepest_) {
        changed = !scores_.empty() || !touched.empty();
        scores_.clear();
        deepest_ = k;
        for (const model::NodeId n : touched) scores_[n] = 1.0;
      } else if (k == deepest_) {
        for (const model::NodeId n : touched)
          changed |= scores_.emplace(n, 1.0).second;
      }
      break;
    case CoreWeighting::ExpDecay:
      // Depth-keyed exponential recency: w(k) = 2^k (exact in double).
      for (const model::NodeId n : touched)
        scores_[n] += std::ldexp(1.0, k);
      changed = !touched.empty();
      break;
  }
  if (changed) epoch_.fetch_add(1, std::memory_order_release);
  REFBMC_TRACE_EVENT(
      obs::EventKind::RankPublish, k,
      static_cast<std::int64_t>(epoch_.load(std::memory_order_relaxed)));
  return touched.size();
}

void SharedRankSource::seed(const CoreRanking& ranking) {
  REFBMC_EXPECTS_MSG(ranking.weighting() == weighting_,
                     "rank seed weighting does not match the source's");
  const std::lock_guard<std::mutex> lock(mu_);
  REFBMC_EXPECTS_MSG(scores_.empty() && deepest_ == -1,
                     "rank seed must precede every publish");
  scores_ = ranking.scores();
  if (!scores_.empty()) epoch_.fetch_add(1, std::memory_order_release);
}

std::vector<double> SharedRankSource::project(
    const OriginMap& origin, std::uint64_t* epoch_out) const {
  // Copy the node-axis scores (small) under the lock — with the epoch,
  // read under the same lock publishes take, so it is exactly the one
  // this score state corresponds to — and project onto the CNF axis
  // (origin.size() lookups, easily orders of magnitude larger) outside
  // it, so a refreshing entrant never stalls its rivals' publishes.
  std::unordered_map<model::NodeId, double> scores;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (epoch_out != nullptr)
      *epoch_out = epoch_.load(std::memory_order_relaxed);
    scores = scores_;
  }
  return CoreRanking(weighting_, std::move(scores), 0).project(origin);
}

CoreRanking SharedRankSource::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return CoreRanking(weighting_, scores_,
                     publishes_.load(std::memory_order_relaxed));
}

}  // namespace refbmc::bmc
