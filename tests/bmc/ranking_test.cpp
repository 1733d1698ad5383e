#include "bmc/ranking.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bmc/encoder.hpp"
#include "bmc/engine.hpp"
#include "model/benchgen.hpp"

namespace refbmc::bmc {
namespace {

// A fabricated instance: 6 CNF vars, vars 1-2 from node 10 (frames 0/1),
// vars 3-4 from node 11, var 5 from node 12; var 0 is the constant.
BmcInstance fake_instance() {
  BmcInstance inst;
  inst.depth = 1;
  inst.origin = {
      {model::kConstNode, -1}, {10, 0}, {10, 1}, {11, 0}, {11, 1}, {12, 0},
  };
  inst.cnf.num_vars = 6;
  return inst;
}

TEST(RankingTest, LinearWeightingUsesInstanceDepth) {
  CoreRanking ranking(CoreWeighting::Linear);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {1, 3}, /*k=*/3);  // nodes 10, 11 at instance 3
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 3.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(11), 3.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(12), 0.0);
  ranking.update(inst, {2}, /*k=*/5);  // node 10 again at instance 5
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 8.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(11), 3.0);
}

TEST(RankingTest, NodeCountedOncePerInstance) {
  // in_unsat(x, j) is 0/1: both frames of node 10 in one core count once.
  CoreRanking ranking(CoreWeighting::Linear);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {1, 2}, /*k=*/4);
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 4.0);
}

TEST(RankingTest, ConstantNodeIgnored) {
  CoreRanking ranking(CoreWeighting::Linear);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {0, 5}, /*k=*/2);
  EXPECT_DOUBLE_EQ(ranking.node_score(model::kConstNode), 0.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(12), 2.0);
}

TEST(RankingTest, UniformWeighting) {
  CoreRanking ranking(CoreWeighting::Uniform);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {1}, 3);
  ranking.update(inst, {1}, 9);
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 2.0);
}

TEST(RankingTest, LastOnlyForgets) {
  CoreRanking ranking(CoreWeighting::LastOnly);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {1, 3}, 3);
  EXPECT_DOUBLE_EQ(ranking.node_score(11), 1.0);
  ranking.update(inst, {5}, 4);
  EXPECT_DOUBLE_EQ(ranking.node_score(11), 0.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(12), 1.0);
}

TEST(RankingTest, ExpDecayHalves) {
  CoreRanking ranking(CoreWeighting::ExpDecay);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {1}, 1);
  ranking.update(inst, {3}, 2);
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 0.5);
  EXPECT_DOUBLE_EQ(ranking.node_score(11), 1.0);
  ranking.update(inst, {1}, 3);
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 1.25);
}

TEST(RankingTest, ProjectionMapsNodeScoresToVars) {
  CoreRanking ranking(CoreWeighting::Linear);
  const BmcInstance inst = fake_instance();
  ranking.update(inst, {1}, 2);  // node 10 → 2
  const std::vector<double> rank = ranking.project(inst);
  ASSERT_EQ(rank.size(), 6u);
  EXPECT_DOUBLE_EQ(rank[0], 0.0);
  EXPECT_DOUBLE_EQ(rank[1], 2.0);  // node 10, frame 0
  EXPECT_DOUBLE_EQ(rank[2], 2.0);  // node 10, frame 1 — register axis!
  EXPECT_DOUBLE_EQ(rank[3], 0.0);
  EXPECT_DOUBLE_EQ(rank[5], 0.0);
}

TEST(RankingTest, ProjectionOntoLargerInstance) {
  // Scores transfer to instances with more frames (the whole point).
  CoreRanking ranking(CoreWeighting::Linear);
  ranking.update(fake_instance(), {1}, 2);
  BmcInstance bigger;
  bigger.depth = 2;
  bigger.origin = {{model::kConstNode, -1}, {10, 0}, {10, 1}, {10, 2}};
  const std::vector<double> rank = ranking.project(bigger);
  EXPECT_DOUBLE_EQ(rank[1], 2.0);
  EXPECT_DOUBLE_EQ(rank[2], 2.0);
  EXPECT_DOUBLE_EQ(rank[3], 2.0);
}

TEST(RankingTest, OutOfRangeCoreVarRejected) {
  CoreRanking ranking;
  const BmcInstance inst = fake_instance();
  EXPECT_THROW(ranking.update(inst, {99}, 1), std::invalid_argument);
  EXPECT_THROW(ranking.update(inst, {-1}, 1), std::invalid_argument);
}

TEST(RankingTest, UpdateCountAndWeightingAccessors) {
  CoreRanking ranking(CoreWeighting::Uniform);
  EXPECT_EQ(ranking.num_updates(), 0u);
  EXPECT_EQ(ranking.weighting(), CoreWeighting::Uniform);
  ranking.update(fake_instance(), {}, 1);
  EXPECT_EQ(ranking.num_updates(), 1u);
}

TEST(RankingTest, AliasesJoinCoresAndSumIntoProjections) {
  // Var 1 owns node 10 and also stands for node 12 (folded onto it);
  // var 0, the constant, stands for node 13 (folded to false).
  OriginMap origin{{model::kConstNode, -1}, {10, 0}, {11, 0}};
  origin.add_alias(1, {12, 1});
  origin.add_alias(0, {13, 0});
  CoreRanking ranking(CoreWeighting::Linear);
  EXPECT_EQ(ranking.update(origin, {0, 1}, /*k=*/2), 3u);  // 10, 12, 13
  EXPECT_DOUBLE_EQ(ranking.node_score(10), 2.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(12), 2.0);
  EXPECT_DOUBLE_EQ(ranking.node_score(13), 2.0);
  ranking.update(origin, {2}, /*k=*/3);  // node 11
  const std::vector<double> rank = ranking.project(origin);
  EXPECT_DOUBLE_EQ(rank[0], 2.0);  // node 13
  EXPECT_DOUBLE_EQ(rank[1], 4.0);  // nodes 10 + 12
  EXPECT_DOUBLE_EQ(rank[2], 3.0);  // node 11
}

// The end-to-end alias discipline on a simplified encoding: every CNF
// variable's projected rank is the sum of the scores of exactly the cone
// nodes whose literal lands on it at some frame (owner and aliases).
TEST(RankingTest, ProjectionSumsScoresOfEveryNodeOnAVariable) {
  const model::Benchmark bm =
      model::with_distractor(model::counter_reach(8, 24, true), 24, 101);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 12;
  BmcEngine engine(bm.net, cfg);
  engine.run();
  const CoreRanking ranking = engine.ranking();
  ASSERT_FALSE(ranking.scores().empty());

  constexpr int kDepth = 12;
  BmcInstance inst;
  InstanceSink sink(inst);
  FrameEncoder enc(bm.net, sink);
  enc.encode_to(kDepth);
  ASSERT_GT(inst.origin.num_aliases(), 0u);

  std::map<sat::Var, std::set<model::NodeId>> nodes_on;
  for (const model::NodeId n : enc.cone()) {
    if (n == model::kConstNode) continue;
    for (int f = 0; f <= kDepth; ++f)
      nodes_on[enc.lit_of(model::Signal::make(n), f).var()].insert(n);
  }
  const std::vector<double> rank = ranking.project(inst.origin);
  ASSERT_EQ(rank.size(), inst.origin.size());
  std::size_t multi_node_vars = 0;
  for (std::size_t v = 0; v < rank.size(); ++v) {
    double expect = 0.0;
    const auto it = nodes_on.find(static_cast<sat::Var>(v));
    if (it != nodes_on.end()) {
      for (const model::NodeId n : it->second)
        expect += ranking.node_score(n);
      if (it->second.size() > 1) ++multi_node_vars;
    }
    EXPECT_DOUBLE_EQ(rank[v], expect) << "var " << v;
  }
  EXPECT_GT(multi_node_vars, 0u);
}

std::set<model::NodeId> scored_nodes(const model::Benchmark& bm,
                                     bool simplify, int depth) {
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = depth;
  cfg.simplify = simplify;
  BmcEngine engine(bm.net, cfg);
  engine.run();
  const CoreRanking ranking = engine.ranking();
  std::set<model::NodeId> nodes;
  for (const auto& [node, score] : ranking.scores())
    if (score > 0.0) nodes.insert(node);
  return nodes;
}

TEST(RankingTest, SimplifiedCoresScoreEveryNodeUnsimplifiedOnesDo) {
  // A counter whose initial state folds the whole unrolling to constants:
  // the cores only ever contain the auxiliary false variable, so without
  // its aliases simplification would score no node at all.
  const model::Benchmark bm = model::counter_safe(8, 200, 250);
  const std::set<model::NodeId> off = scored_nodes(bm, false, 10);
  const std::set<model::NodeId> on = scored_nodes(bm, true, 10);
  ASSERT_FALSE(off.empty());
  for (const model::NodeId n : off)
    EXPECT_TRUE(on.count(n) != 0) << "node " << n << " lost its score";
}

TEST(RankingTest, StaticOrderingHalvesBaselineConflictsOnDistractedCounter) {
  // cnt8e_t24+d24 under the Table 1 configuration: the refined ordering
  // must find the counter-example with far less search than VSIDS.
  const model::Benchmark bm =
      model::with_distractor(model::counter_reach(8, 24, true), 24, 101);
  const auto conflicts = [&](OrderingPolicy policy) {
    EngineConfig cfg;
    cfg.policy = policy;
    cfg.max_depth = bm.suggested_bound;
    BmcEngine engine(bm.net, cfg);
    const BmcResult r = engine.run();
    EXPECT_EQ(r.status, BmcResult::Status::CounterexampleFound);
    return r.total_conflicts();
  };
  const std::uint64_t baseline = conflicts(OrderingPolicy::Baseline);
  const std::uint64_t refined = conflicts(OrderingPolicy::Static);
  EXPECT_LE(2 * refined, baseline)
      << "static " << refined << " vs baseline " << baseline;
}

TEST(RankingTest, WeightingNames) {
  EXPECT_STREQ(to_string(CoreWeighting::Linear), "linear");
  EXPECT_STREQ(to_string(CoreWeighting::Uniform), "uniform");
  EXPECT_STREQ(to_string(CoreWeighting::LastOnly), "last-only");
  EXPECT_STREQ(to_string(CoreWeighting::ExpDecay), "exp-decay");
}

}  // namespace
}  // namespace refbmc::bmc
