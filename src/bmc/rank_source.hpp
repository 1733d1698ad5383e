// RankSource: the ordering-exchange seam between the BMC engine and the
// portfolio — the ordering analogue of the clause pool's lemma exchange.
//
// The paper's refinement loop is sequential: the unsat core of depth k
// sharpens the decision ordering of depth k+1 inside ONE engine.  A
// portfolio race runs P engines over the same formula at once, and each
// of them used to re-learn that ordering privately.  RankSource lifts
// the CoreRanking accumulation behind an interface so it can live either
//
//   * inside the engine (LocalRankSource — the paper's loop, bit for
//     bit the pre-seam behaviour), or
//   * at the race level (SharedRankSource — a mutex-guarded score map
//     in MODEL-NODE space with a monotone epoch counter; every entrant
//     publishes its cores and projects the merged accumulation through
//     its own origin map, the same endpoint-style translation
//     discipline the clause pool uses for tape-space literals).
//
// Model-node space is what makes cross-entrant merging sound: CNF
// variable numberings differ per entrant (scratch sessions renumber per
// depth, incremental sessions interleave activation guards), but the
// origin map ties every CNF variable back to a (netlist node, frame)
// pair, and bmc_score lives on the node axis (§3.2) — publishing and
// projecting through each entrant's own origin map means no entrant
// ever interprets another's variable numbering.  The origin map is
// alias-aware (OriginMap, cnf.hpp; ranking.hpp "Alias discipline"): a
// published core variable touches its owner node plus every node the
// encoder folded onto it, and a projected variable's rank is the sum
// over the same node set.  Scores are pure heuristic weight, so unlike
// clause exchange no derivability invariant is needed: a bad merge
// could only slow a rival down, never flip a verdict.
//
// Order independence.  Racing entrants publish concurrently, so the
// shared merge must not depend on arrival order (same cores, any
// interleaving => same projection).  Linear and Uniform are additive
// and commutative as-is; the two history-shaped weightings are re-keyed
// from update order to DEPTH so they commute:
//
//   * LastOnly keeps the union of cores published for the deepest
//     depth seen so far (a deeper publish replaces, an equal-depth one
//     merges);
//   * ExpDecay becomes w(k) = 2^k — exponentially favouring recent
//     depths, which is what halve-per-update approximates in the
//     sequential loop.
//
// All weights are integers or exact powers of two, so double
// accumulation is exact and the merged scores are bit-reproducible
// under any publish order.
//
// Mid-solve refresh.  SharedRankSource bumps its epoch whenever the
// accumulation actually changes; RankProjector adapts a (source, origin
// map) pair to the sat::RankRefresh seam the solver polls at solve
// start and restarts (decision level 0 — the same boundaries as clause
// import), so a long-running entrant picks up rivals' cores without
// leaving its search.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "bmc/ranking.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {

class RankSource {
 public:
  virtual ~RankSource() = default;

  /// Records the unsat core of a depth-k instance: `core_vars` are CNF
  /// variables of the publishing engine, projected onto the model axis
  /// (owners and aliases) through that engine's own `origin` map.
  /// Returns the number of model nodes the core touched.
  virtual std::size_t publish(const OriginMap& origin,
                              const std::vector<sat::Var>& core_vars,
                              int k) = 0;

  /// Per-CNF-variable ranks for `origin` from the current accumulation.
  /// `epoch_out`, when non-null, receives the epoch this projection
  /// corresponds to (seed RankProjector::bind with it so the first
  /// has_update() poll stays quiet).
  virtual std::vector<double> project(
      const OriginMap& origin, std::uint64_t* epoch_out = nullptr) const = 0;

  /// Monotone change counter: advances exactly when a publish changed
  /// some score.  One cheap atomic load — pollable from inside a solve.
  virtual std::uint64_t epoch() const = 0;

  /// Publish calls processed (mirrors CoreRanking::num_updates; no-op
  /// merges count too).
  virtual std::size_t num_updates() const = 0;

  virtual CoreWeighting weighting() const = 0;

  /// Copy of the accumulated node-axis scores (inspection / tests).
  virtual CoreRanking snapshot() const = 0;
};

/// The paper's engine-private accumulation: a plain CoreRanking behind
/// the seam.  Single-threaded; publish and project trajectories are bit
/// for bit those of the pre-seam engine.
class LocalRankSource final : public RankSource {
 public:
  explicit LocalRankSource(CoreWeighting weighting = CoreWeighting::Linear)
      : ranking_(weighting) {}

  std::size_t publish(const OriginMap& origin,
                      const std::vector<sat::Var>& core_vars,
                      int k) override {
    return ranking_.update(origin, core_vars, k);
  }
  std::vector<double> project(const OriginMap& origin,
                              std::uint64_t* epoch_out) const override {
    if (epoch_out != nullptr) *epoch_out = ranking_.num_updates();
    return ranking_.project(origin);
  }
  std::uint64_t epoch() const override { return ranking_.num_updates(); }
  std::size_t num_updates() const override { return ranking_.num_updates(); }
  CoreWeighting weighting() const override { return ranking_.weighting(); }
  CoreRanking snapshot() const override { return ranking_; }

 private:
  CoreRanking ranking_;
};

/// Race-wide accumulation: one instance per race (or shard group of
/// identical jobs), shared by every entrant.  Publishing merges under a
/// mutex with the order-independent weighting semantics documented
/// above; epoch() is a lock-free peek for the solver's refresh poll.
class SharedRankSource final : public RankSource {
 public:
  explicit SharedRankSource(CoreWeighting weighting = CoreWeighting::Linear)
      : weighting_(weighting) {}

  SharedRankSource(const SharedRankSource&) = delete;
  SharedRankSource& operator=(const SharedRankSource&) = delete;

  std::size_t publish(const OriginMap& origin,
                      const std::vector<sat::Var>& core_vars,
                      int k) override;
  std::vector<double> project(const OriginMap& origin,
                              std::uint64_t* epoch_out) const override;
  /// Warm start: installs a previously accumulated node-axis ranking
  /// (e.g. the snapshot a JobServer persisted for this netlist hash)
  /// before the race begins, so depth 0 already projects a refined
  /// ordering instead of re-learning it from scratch.  Scores are pure
  /// heuristic weight, so a stale seed can only cost time, never a
  /// verdict.  `ranking.weighting()` must match; call before any entrant
  /// publishes or projects — seeding is a construction-time operation,
  /// not a mid-race merge (it REPLACES the accumulation).  Advances the
  /// epoch when it installs anything, like any other change.
  void seed(const CoreRanking& ranking);
  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }
  std::size_t num_updates() const override {
    return publishes_.load(std::memory_order_acquire);
  }
  CoreWeighting weighting() const override { return weighting_; }
  CoreRanking snapshot() const override;

 private:
  const CoreWeighting weighting_;
  mutable std::mutex mu_;
  std::unordered_map<model::NodeId, double> scores_;
  int deepest_ = -1;  // LastOnly: the depth the kept cores belong to
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> publishes_{0};
};

/// Adapts a (RankSource, origin map) pair to the solver's RankRefresh
/// seam: has_update() compares the source's epoch against the last
/// projection this solver saw, refresh() re-projects.  Owned by the
/// engine, rebound per depth (the origin map grows between depths);
/// refresh() runs on the solving thread, concurrent publishes are the
/// source's business.
class RankProjector final : public sat::RankRefresh {
 public:
  /// `origin` is held by reference: it must outlive the binding.
  void bind(const RankSource& source, const OriginMap& origin,
            std::uint64_t seen_epoch) {
    source_ = &source;
    origin_ = &origin;
    seen_epoch_ = seen_epoch;
    last_refresh_us_ = 0;
  }
  void bind(const RankSource&, OriginMap&&, std::uint64_t) = delete;

  /// Minimum wall-clock gap between two mid-solve re-projections.  A
  /// full projection walks the whole origin map; on restart-heavy
  /// instances with chatty rivals that cost used to land at every
  /// restart.  The throttle caps the refresh *rate* without losing any
  /// update — a deferred epoch is still pending at the next boundary
  /// past the window.  0 disables the throttle (tests that count
  /// refreshes deterministically rely on that).
  void set_min_refresh_interval_us(std::uint64_t us) {
    min_interval_us_ = us;
  }

  bool has_update() const override {
    // Epoch check first: it is the cheap common case (one relaxed-ish
    // atomic load, almost always equal), and the clock is only read
    // when there is actually something to fetch.
    if (source_ == nullptr || source_->epoch() == seen_epoch_) return false;
    if (min_interval_us_ == 0 || last_refresh_us_ == 0) return true;
    return obs::monotonic_now_us() - last_refresh_us_ >= min_interval_us_;
  }
  std::span<const double> refresh() override {
    // Span = the projection cost of one mid-solve refresh, on the
    // solving thread; value = the accumulation epoch it caught up to.
    obs::TraceSpan span(obs::EventKind::RankRefresh);
    buf_ = source_->project(*origin_, &seen_epoch_);
    last_refresh_us_ = obs::monotonic_now_us();
    span.set_value(static_cast<std::int64_t>(seen_epoch_));
    return buf_;
  }

 private:
  const RankSource* source_ = nullptr;
  const OriginMap* origin_ = nullptr;
  std::uint64_t seen_epoch_ = 0;
  std::uint64_t min_interval_us_ = 2000;  // 2ms between re-projections
  std::uint64_t last_refresh_us_ = 0;     // 0 = never refreshed this bind
  std::vector<double> buf_;
};

}  // namespace refbmc::bmc
