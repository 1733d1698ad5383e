#include "bmc/ranking.hpp"

#include <unordered_set>

#include "util/assert.hpp"

namespace refbmc::bmc {

std::optional<CoreWeighting> parse_core_weighting(std::string_view name) {
  for (const CoreWeighting w : all_core_weightings())
    if (name == to_string(w)) return w;
  return std::nullopt;
}

std::unordered_set<model::NodeId> core_nodes(
    const OriginMap& origin, const std::vector<sat::Var>& core_vars) {
  std::unordered_set<model::NodeId> touched;
  for (const sat::Var v : core_vars) {
    REFBMC_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < origin.size());
    const model::NodeId node = origin[static_cast<std::size_t>(v)].node;
    if (node != model::kConstNode) touched.insert(node);
    origin.for_each_alias(v, [&](std::size_t, const VarOrigin& a) {
      touched.insert(a.node);
    });
  }
  return touched;
}

std::size_t CoreRanking::update(const OriginMap& origin,
                                const std::vector<sat::Var>& core_vars,
                                int k) {
  const std::unordered_set<model::NodeId> touched =
      core_nodes(origin, core_vars);

  switch (weighting_) {
    case CoreWeighting::Linear:
      for (const model::NodeId n : touched)
        scores_[n] += static_cast<double>(k);
      break;
    case CoreWeighting::Uniform:
      for (const model::NodeId n : touched) scores_[n] += 1.0;
      break;
    case CoreWeighting::LastOnly:
      scores_.clear();
      for (const model::NodeId n : touched) scores_[n] = 1.0;
      break;
    case CoreWeighting::ExpDecay:
      for (auto& [node, score] : scores_) {
        (void)node;
        score /= 2.0;
      }
      for (const model::NodeId n : touched) scores_[n] += 1.0;
      break;
  }
  ++num_updates_;
  return touched.size();
}

std::vector<double> CoreRanking::project(const OriginMap& origin) const {
  std::vector<double> rank(origin.size(), 0.0);
  if (scores_.empty()) return rank;
  for (std::size_t v = 0; v < origin.size(); ++v) {
    double r = node_score(origin[v].node);
    origin.for_each_alias(static_cast<sat::Var>(v),
                          [&](std::size_t, const VarOrigin& a) {
                            r += node_score(a.node);
                          });
    rank[v] = r;
  }
  return rank;
}

double CoreRanking::node_score(model::NodeId node) const {
  const auto it = scores_.find(node);
  return it == scores_.end() ? 0.0 : it->second;
}

}  // namespace refbmc::bmc
