// The RankSource seam (rank_source.hpp):
//
//   * LocalRankSource is CoreRanking behind the interface, bit for bit
//     — same projections, epoch = num_updates;
//   * SharedRankSource merges order-independently: the same set of
//     publishes produces the same projection under ANY order — shuffled
//     sequentially or raced from N threads — for every weighting;
//   * the epoch advances exactly when the accumulation changes, and
//     RankProjector turns an epoch advance into a refreshed projection.
#include "bmc/rank_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace refbmc::bmc {
namespace {

// A small CNF-variable origin map over model nodes 1..n (node 0 is the
// constant and is skipped by scoring).
OriginMap origin_over(model::NodeId num_nodes) {
  OriginMap origin;
  for (model::NodeId n = 0; n <= num_nodes; ++n)
    origin.push_back(VarOrigin{n, 0});
  return origin;
}

struct Publish {
  std::vector<sat::Var> core;
  int depth = 0;
};

// A deterministic mixed-depth publish set touching overlapping node
// subsets — the shape racing entrants produce.
std::vector<Publish> publish_set() {
  return {
      {{1, 2, 3}, 0}, {{2, 3}, 1},    {{3, 4, 5}, 1}, {{1, 5}, 2},
      {{2, 4}, 2},    {{1, 2, 5}, 3}, {{4}, 3},       {{1, 3, 5}, 4},
  };
}

TEST(RankSourceTest, LocalMatchesCoreRankingBitForBit) {
  const auto origin = origin_over(6);
  for (const CoreWeighting w : all_core_weightings()) {
    SCOPED_TRACE(to_string(w));
    CoreRanking reference(w);
    LocalRankSource local(w);
    for (const Publish& p : publish_set()) {
      reference.update(origin, p.core, p.depth);
      local.publish(origin, p.core, p.depth);
    }
    EXPECT_EQ(local.num_updates(), reference.num_updates());
    EXPECT_EQ(local.epoch(), reference.num_updates());
    EXPECT_EQ(local.project(origin, nullptr), reference.project(origin));
    EXPECT_EQ(local.snapshot().scores(), reference.scores());
  }
}

TEST(RankSourceTest, SharedLinearAndUniformMatchSequentialAccumulation) {
  // The additive weightings need no re-keying: a single publisher feeding
  // a SharedRankSource sees exactly the engine-private accumulation.
  const auto origin = origin_over(6);
  for (const CoreWeighting w :
       {CoreWeighting::Linear, CoreWeighting::Uniform}) {
    SCOPED_TRACE(to_string(w));
    CoreRanking reference(w);
    SharedRankSource shared(w);
    for (const Publish& p : publish_set()) {
      reference.update(origin, p.core, p.depth);
      shared.publish(origin, p.core, p.depth);
    }
    EXPECT_EQ(shared.project(origin, nullptr), reference.project(origin));
  }
}

TEST(RankSourceTest, SharedMergeIsOrderIndependentSequentially) {
  // Any permutation of the same publish set must land on the exact same
  // projection (the weights are integers / powers of two, so double
  // accumulation is exact — equality is bit-level, not approximate).
  const auto origin = origin_over(6);
  for (const CoreWeighting w : all_core_weightings()) {
    SCOPED_TRACE(to_string(w));
    std::vector<Publish> publishes = publish_set();
    SharedRankSource canonical(w);
    for (const Publish& p : publishes) canonical.publish(origin, p.core, p.depth);
    const std::vector<double> expect = canonical.project(origin, nullptr);

    Rng rng(42);
    for (int round = 0; round < 10; ++round) {
      for (std::size_t i = publishes.size(); i > 1; --i)
        std::swap(publishes[i - 1], publishes[rng.next_below(i)]);
      SharedRankSource shuffled(w);
      for (const Publish& p : publishes)
        shuffled.publish(origin, p.core, p.depth);
      EXPECT_EQ(shuffled.project(origin, nullptr), expect)
          << "round " << round;
    }
  }
}

TEST(RankSourceTest, SharedMergeIsOrderIndependentAcrossThreads) {
  // N threads racing disjoint slices of the publish set — whatever the
  // interleaving, the merged projection equals the sequential one.
  const auto origin = origin_over(6);
  const std::vector<Publish> publishes = publish_set();
  constexpr int kThreads = 4;
  for (const CoreWeighting w : all_core_weightings()) {
    SCOPED_TRACE(to_string(w));
    SharedRankSource canonical(w);
    for (const Publish& p : publishes)
      canonical.publish(origin, p.core, p.depth);
    const std::vector<double> expect = canonical.project(origin, nullptr);

    for (int round = 0; round < 5; ++round) {
      SharedRankSource raced(w);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t i = static_cast<std::size_t>(t);
               i < publishes.size(); i += kThreads)
            raced.publish(origin, publishes[i].core, publishes[i].depth);
        });
      }
      for (auto& t : threads) t.join();
      EXPECT_EQ(raced.project(origin, nullptr), expect) << "round " << round;
      EXPECT_EQ(raced.num_updates(), publishes.size());
    }
  }
}

TEST(RankSourceTest, SharedLastOnlyKeepsDeepestUnion) {
  const auto origin = origin_over(6);
  SharedRankSource src(CoreWeighting::LastOnly);
  src.publish(origin, {1, 2}, 3);
  src.publish(origin, {3}, 1);  // shallower: ignored
  src.publish(origin, {4}, 3);  // equal depth: merged
  const CoreRanking snap = src.snapshot();
  EXPECT_EQ(snap.node_score(1), 1.0);
  EXPECT_EQ(snap.node_score(2), 1.0);
  EXPECT_EQ(snap.node_score(3), 0.0);
  EXPECT_EQ(snap.node_score(4), 1.0);
  src.publish(origin, {5}, 7);  // deeper: replaces everything
  EXPECT_EQ(src.snapshot().node_score(1), 0.0);
  EXPECT_EQ(src.snapshot().node_score(5), 1.0);
}

TEST(RankSourceTest, SharedEpochAdvancesExactlyOnChange) {
  const auto origin = origin_over(6);
  SharedRankSource src(CoreWeighting::LastOnly);
  EXPECT_EQ(src.epoch(), 0u);
  src.publish(origin, {1, 2}, 5);
  const std::uint64_t e1 = src.epoch();
  EXPECT_GT(e1, 0u);
  src.publish(origin, {3, 4}, 2);  // shallower than the kept core: no-op
  EXPECT_EQ(src.epoch(), e1);
  src.publish(origin, {1}, 5);  // already present at this depth: no-op
  EXPECT_EQ(src.epoch(), e1);
  src.publish(origin, {3}, 5);  // genuinely new node at the kept depth
  EXPECT_GT(src.epoch(), e1);
  // Publish calls are counted whether or not they changed anything.
  EXPECT_EQ(src.num_updates(), 4u);

  // A core of constant-only variables scores nothing and moves nothing.
  SharedRankSource uniform(CoreWeighting::Uniform);
  uniform.publish(origin, {0}, 1);  // var 0 originates from kConstNode
  EXPECT_EQ(uniform.epoch(), 0u);
}

TEST(RankSourceTest, ProjectorRefreshesOnEpochAdvance) {
  const auto origin = origin_over(3);
  SharedRankSource src(CoreWeighting::Uniform);
  src.publish(origin, {1}, 0);

  std::uint64_t epoch = 0;
  const std::vector<double> initial = src.project(origin, &epoch);
  RankProjector projector;
  projector.bind(src, origin, epoch);
  EXPECT_FALSE(projector.has_update());  // seeded with the seen epoch

  src.publish(origin, {2, 3}, 1);
  ASSERT_TRUE(projector.has_update());
  const std::span<const double> refreshed = projector.refresh();
  EXPECT_FALSE(projector.has_update());  // consumed the advance
  ASSERT_EQ(refreshed.size(), origin.size());
  EXPECT_EQ(refreshed[1], 1.0);
  EXPECT_EQ(refreshed[2], 1.0);
  EXPECT_EQ(refreshed[3], 1.0);
  EXPECT_EQ(initial[2], 0.0);  // the pre-advance projection lacked it
}

TEST(RankSourceTest, ProjectionsTranslatePerOriginMap) {
  // Two entrants with different CNF numberings of the same model nodes
  // read the same accumulation through their own maps — the endpoint
  // discipline that makes node-space sharing sound.
  SharedRankSource src(CoreWeighting::Uniform);
  const OriginMap a{{3, 0}, {1, 0}, {2, 0}};
  const OriginMap b{{2, 1}, {3, 1}};
  src.publish(a, {0, 2}, 0);  // touches nodes 3 and 2 via a's map
  const std::vector<double> ra = src.project(a, nullptr);
  const std::vector<double> rb = src.project(b, nullptr);
  EXPECT_EQ(ra, (std::vector<double>{1.0, 0.0, 1.0}));
  EXPECT_EQ(rb, (std::vector<double>{1.0, 1.0}));
}

}  // namespace
}  // namespace refbmc::bmc
