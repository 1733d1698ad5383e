// Replayable clause streams and the thread-safe shared formula.
//
// A ClauseTape records the encoder's output — variable creations and
// clauses, in order — so the formula can be replayed into any number of
// sinks without re-encoding: a fresh solver per depth (scratch session),
// a persistent solver fed deltas (incremental session), or the P racing
// solvers of the portfolio (encode-once racing).  A Cursor tracks how far
// one consumer has replayed and carries the tape-var → sink-var
// translation (sinks may interleave their own variables, e.g. activation
// literals, so the spaces differ in general).
//
// SharedTape wraps tape + FrameEncoder behind a mutex: ensure_depth(k)
// encodes frames at most once regardless of how many threads ask, and
// replay_to() streams a consumer forward.  Replay happens under the lock
// too — clause copying is orders of magnitude cheaper than solving, so
// contention is negligible next to the O(P × k²) re-encoding it replaces.
// Aliases (encoder.hpp, "Alias discipline") ride along as a third
// stream next to variables and clauses: the tape keeps them in its
// tape-space OriginMap, a Mark counts them, and every replay path
// translates them through the cursor like literals into the sink's
// add_alias — dropping those of variables preprocessing eliminated and
// re-attaching them when a later delta resurrects the variable.
// Cold storage (PR 10): freeze_prefix() re-encodes an already-replayed
// event prefix into the compact codec form (tape_codec.hpp) and drops
// the raw vectors — indices stay absolute, every reader goes through
// scan(), and late joiners decode transparently.  SharedTape's
// set_cold_storage(true) freezes each depth's prefix as the next one is
// encoded and keeps the consumed SimplifiedDepth/IncDelta caches
// encoded too.  Representation-only: verdicts, counters and replay
// streams are bit-identical with the mode off or on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "bmc/encoder.hpp"
#include "bmc/preprocess.hpp"
#include "util/mem_tracker.hpp"

namespace refbmc::bmc {

class ClauseTape final : public ClauseSink {
 public:
  /// A position in the stream; taken with mark(), consumed by replay().
  struct Mark {
    std::size_t ops = 0;
    std::size_t lits = 0;
    std::size_t vars = 0;
    std::size_t clauses = 0;
    std::size_t aliases = 0;
  };

  /// One consumer's replay state.  var_map[i] is the sink variable that
  /// tape variable i became.
  struct Cursor {
    std::size_t op = 0;
    std::size_t lit = 0;
    std::size_t alias = 0;  // aliases replayed so far
    std::vector<sat::Var> var_map;

    /// Translates a tape-space literal into the sink's variable space.
    /// Only valid for variables the cursor has already replayed.
    sat::Lit translate(sat::Lit tape_lit) const {
      REFBMC_EXPECTS(static_cast<std::size_t>(tape_lit.var()) <
                     var_map.size());
      return sat::Lit::make(var_map[static_cast<std::size_t>(tape_lit.var())],
                            tape_lit.negated());
    }
  };

  // ---- recording (ClauseSink) -----------------------------------------
  sat::Var add_var(const VarOrigin& origin) override {
    const auto v = static_cast<sat::Var>(origin_.size());
    origin_.push_back(origin);
    ops_.push_back(kVarOp);
    return v;
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    ops_.push_back(static_cast<std::int32_t>(lits.size()));
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ++num_clauses_;
  }
  void add_alias(sat::Var v, const VarOrigin& alias) override {
    origin_.add_alias(v, alias);
  }

  // ---- reading ---------------------------------------------------------
  Mark mark() const {
    return Mark{base_ops_ + ops_.size(), base_lits_ + lits_.size(),
                origin_.size(), num_clauses_, origin_.num_aliases()};
  }
  std::size_t num_vars() const { return origin_.size(); }
  std::size_t num_clauses() const { return num_clauses_; }
  const OriginMap& origin() const { return origin_; }

  /// Replays events in [cursor, upto) into `out`, advancing the cursor.
  void replay(Cursor& cursor, const Mark& upto, ClauseSink& out) const;

  /// Hands the aliases in [cursor.alias, upto.aliases) to `out`, each
  /// translated through the cursor; aliases of variables the cursor
  /// maps to sat::kVarUndef (eliminated) are dropped.  Advances
  /// cursor.alias.
  void replay_aliases(Cursor& cursor, const Mark& upto,
                      ClauseSink& out) const;

  /// Re-attaches to `out` every alias of tape variable v recorded
  /// before `upto` (a resurrected variable's dropped aliases).
  void replay_aliases_of(sat::Var v, const Cursor& cursor, const Mark& upto,
                         ClauseSink& out) const;

  /// Copies the clauses recorded up to `upto`, in tape variable space
  /// (the preprocessing pass consumes them without a sink).
  void export_clauses(const Mark& upto,
                      std::vector<std::vector<sat::Lit>>& out) const;

  /// Copies the clauses recorded in (from, upto], in tape variable
  /// space — one depth's delta for the incremental preprocessing pass.
  void export_clauses_range(const Mark& from, const Mark& upto,
                            std::vector<std::vector<sat::Lit>>& out) const;

  /// Walks ops [op_begin, op_end): on_vars(n) per run of add_var ops,
  /// on_clause(lits) per clause in tape literal space (span valid until
  /// the next callback).  `lit_begin` is the literal offset of op_begin
  /// (a Mark's `lits`, a Cursor's `lit`), so a walk costs the range it
  /// reads, not the tape before it.  Transparent over frozen segments —
  /// they are decoded on the fly.  Either callback may be empty.
  void scan(std::size_t op_begin, std::size_t lit_begin, std::size_t op_end,
            const std::function<void(std::size_t)>& on_vars,
            const std::function<void(std::span<const sat::Lit>)>& on_clause)
      const;

  // ---- cold storage ----------------------------------------------------
  /// Re-encodes every raw event below `upto` into a compact codec
  /// segment and drops the raw words.  Indices stay absolute (mark(),
  /// Cursor positions and replay() keep working unchanged); reading a
  /// frozen range decodes it through scan().  Monotone: upto must not
  /// precede an earlier freeze.
  void freeze_prefix(const Mark& upto);

  /// Capacity hints for the recording vectors, ADDED to what is already
  /// stored (netlist-derived, see SharedTape's per-frame estimate).
  /// Grows only when the hint does not fit, and then geometrically, so
  /// per-frame hints copy the raw tail O(log frames) times in total.
  void reserve_additional(std::size_t ops, std::size_t lits) {
    reserve_geometric(ops_, ops);
    reserve_geometric(lits_, lits);
  }

  std::size_t frozen_segments() const { return frozen_.size(); }
  /// What the whole event stream costs in raw vector form (4 bytes per
  /// op + 4 per literal), frozen or not — the codec's baseline.
  std::size_t raw_bytes() const {
    return (base_ops_ + ops_.size()) * sizeof(std::int32_t) +
           (base_lits_ + lits_.size()) * sizeof(sat::Lit);
  }
  /// Encoded bytes held by frozen segments.
  std::size_t encoded_bytes() const {
    std::size_t n = 0;
    for (const FrozenSegment& s : frozen_) n += s.bytes.size();
    return n;
  }
  /// The tape's actual heap footprint: raw-tail capacity + frozen
  /// segment bytes + the origin map.
  std::size_t memory_bytes() const {
    std::size_t n = ops_.capacity() * sizeof(std::int32_t) +
                    lits_.capacity() * sizeof(sat::Lit) +
                    origin_.memory_bytes();
    for (const FrozenSegment& s : frozen_) n += s.bytes.capacity();
    return n;
  }

 private:
  static constexpr std::int32_t kVarOp = -1;

  template <typename T>
  static void reserve_geometric(std::vector<T>& v, std::size_t extra) {
    const std::size_t want = v.size() + extra;
    if (want > v.capacity()) v.reserve(std::max(want, 2 * v.capacity()));
  }

  /// One frozen (codec-encoded) prefix range; segments are contiguous
  /// from op 0 and cover base_ops_ ops / base_lits_ lits in total.
  struct FrozenSegment {
    std::size_t ops = 0;
    std::size_t lits = 0;
    std::vector<std::uint8_t> bytes;
  };

  std::vector<FrozenSegment> frozen_;  // encoded prefix, in order
  std::size_t base_ops_ = 0;   // absolute index of ops_[0]
  std::size_t base_lits_ = 0;  // absolute index of lits_[0]
  std::vector<std::int32_t> ops_;  // raw tail: kVarOp or a literal count
  std::vector<sat::Lit> lits_;     // raw tail: flattened clause literals
  OriginMap origin_;  // per tape variable, with aliases (never frozen)
  std::size_t num_clauses_ = 0;
};

/// The one formula of a (netlist, property) pair, encoded exactly once
/// and consumed by any number of sessions, possibly concurrently.
class SharedTape {
 public:
  SharedTape(const model::Netlist& net, std::size_t bad_index = 0,
             EncoderOptions opts = {}, PreprocessOptions preprocess = {});

  const model::Netlist& net() const { return net_; }
  std::size_t bad_index() const { return bad_index_; }
  const EncoderOptions& options() const { return opts_; }
  /// Immutable after construction; racing consumers must agree on it
  /// (the engine asserts a shared tape's options match its own config).
  const PreprocessOptions& preprocess_options() const { return preprocess_; }

  /// Encodes frames up to depth k if not yet present.  Thread-safe; the
  /// frames_encoded() counter advances at most once per depth, ever.
  void ensure_depth(int k);

  /// Replays everything up to depth k's mark (ensuring it first) into
  /// `out`, advancing `cursor`.  Thread-safe.
  void replay_to(int k, ClauseTape::Cursor& cursor, ClauseSink& out);

  /// Replays the PREPROCESSED formula of depth k into a fresh consumer
  /// (the cursor must not have replayed anything yet: the simplified
  /// stream is per-depth, not incremental).  Kept tape variables are
  /// created in tape order so their sink numbering matches a plain
  /// replay's relative order; eliminated variables occupy a
  /// sat::kVarUndef slot in the var_map and never reach the sink.  The
  /// simplification runs (and is cached) once per depth, race-wide.
  /// Thread-safe.
  void replay_simplified_to(int k, ClauseTape::Cursor& cursor,
                            ClauseSink& out);

  /// Replays the PREPROCESSED DELTA of depth f — the clauses frame f
  /// added on top of frame f-1, simplified against everything already
  /// replayed — into an incremental consumer whose cursor is parked at
  /// depth f-1's mark (or fresh, for f = 0).  Unlike
  /// replay_simplified_to, the simplification state is cumulative: root
  /// facts from earlier deltas seed the pass, one depth-tagged
  /// VarRemapper witness history serves every depth, and a delta that
  /// references a variable eliminated at an earlier depth transparently
  /// RESURRECTS it (the variable is re-created in the sink and its
  /// removed-clause kit is re-emitted before the delta, restoring every
  /// deleted constraint).  Deltas are computed (and cached) once per
  /// depth, race-wide, so every incremental consumer sees the identical
  /// stream.  Thread-safe.
  void replay_simplified_delta(int f, ClauseTape::Cursor& cursor,
                               ClauseSink& out);

  /// Preprocessing counters for depth k (runs the cached pass first).
  PreprocessStats preprocess_stats_at(int k);
  /// Preprocessing counters for depth k's incremental DELTA (runs the
  /// cached delta passes up to k first).
  PreprocessStats incremental_preprocess_stats_at(int k);
  /// The incremental remapper as of depth k's delta (witnesses for
  /// model completion across depths): exactly the elimination state a
  /// consumer that replayed deltas 0..k is solving under, even when a
  /// faster consumer has already advanced the shared history past k —
  /// variables eliminated at depths <= k and not resurrected by then,
  /// in elimination order.  Rebuilt from the depth-tagged history on
  /// each call (VarRemapper::as_of); returned by value.
  VarRemapper incremental_remapper_at(int k);
  /// Clause count of the simplified formula at depth k — what a
  /// preprocessed scratch consumer's solver must end up holding (the
  /// session asserts the round trip).
  std::size_t simplified_clauses_at(int k);
  /// The remapper of depth k (witness stack for model completion).
  /// Returned by value: the per-depth cache may reallocate as deeper
  /// frames are simplified.
  VarRemapper remapper_at(int k);

  // Tape-space literals (ensure_depth is implied); translate through a
  // replay cursor before handing them to a sink's solver.
  sat::Lit property(int k);
  sat::Lit bad(int frame);
  std::vector<sat::Lit> latch_lits(int frame);

  /// Formula size at depth k's mark (what a scratch consumer sees).
  ClauseTape::Mark mark_at(int k);

  std::uint64_t frames_encoded() const;
  /// Cumulative encoder counters after frame k (simplification savings
  /// for DepthStats).
  EncodeStats stats_at(int k);
  EncodeStats stats() const;

  // ---- space accounting -----------------------------------------------
  /// Cold storage: when on, each depth's event prefix is frozen (codec-
  /// encoded, raw words dropped) as the next depth is encoded, and the
  /// consumed SimplifiedDepth/IncDelta caches are kept encoded too,
  /// decoding on replay.  Representation-only — replay streams are
  /// bit-identical either way — so it is excluded from
  /// api::config_fingerprint.  Applies to depths encoded after the call.
  void set_cold_storage(bool on);
  bool cold_storage() const;

  /// Tape + cache footprint deltas are charged here (may be null).
  void set_mem_tracker(MemTracker* tracker);

  /// Heap footprint of the tape, its per-depth caches and the
  /// incremental witness history (the value charged to the MemTracker).
  std::size_t memory_bytes() const;
  /// Raw-form cost of the event stream (the codec baseline) and the
  /// bytes frozen segments actually hold — the bench_memory ratio.
  std::size_t tape_raw_bytes() const;
  std::size_t tape_encoded_bytes() const;

 private:
  void ensure_locked(int k);
  void ensure_simplified_locked(int k);
  void ensure_inc_delta_locked(int f);
  std::vector<char> frozen_set_locked(int first, int k) const;
  std::size_t footprint_locked() const;
  void recharge_locked();

  /// One depth's cached simplification (clauses + remapper + stats).
  /// Under cold storage the clause list is kept codec-encoded.
  struct SimplifiedDepth {
    bool ready = false;
    SimplifyResult result;
    std::size_t clause_count = 0;
    std::vector<std::uint8_t> cold;  // encoded result.clauses
    bool is_cold = false;
  };

  /// One depth's cached incremental delta: the variables resurrected
  /// for it, which of its new variables survived, and the simplified
  /// delta clauses (kit clauses included), all in tape space.
  /// Consumers replay deltas strictly in depth order, so caching makes
  /// the stream identical race-wide.  The elimination state lives in
  /// `inc_remap_`'s depth-tagged history alone; incremental_remapper_at
  /// rebuilds any depth's state from it, so a consumer completing a
  /// model at depth k is immune to faster consumers advancing past k.
  struct IncDelta {
    bool ready = false;
    std::vector<sat::Var> resurrected;       // sink creation order
    std::vector<char> kept_new;              // per var in (prev, mark]
    std::vector<std::vector<sat::Lit>> clauses;  // kits + simplified delta
    std::vector<std::uint8_t> cold;          // encoded `clauses` (cold mode)
    bool is_cold = false;
    PreprocessStats stats;
  };

  mutable std::mutex mu_;
  const model::Netlist& net_;
  std::size_t bad_index_;
  EncoderOptions opts_;
  PreprocessOptions preprocess_;
  ClauseTape tape_;
  FrameEncoder encoder_;
  std::vector<ClauseTape::Mark> depth_marks_;  // per encoded depth
  std::vector<EncodeStats> depth_stats_;       // cumulative per depth
  std::vector<SimplifiedDepth> simplified_;    // per depth, lazy
  // Cumulative incremental preprocessing state (delta mode): the one
  // depth-tagged witness history + root facts carried forward.
  std::vector<IncDelta> inc_deltas_;           // per depth, lazy
  VarRemapper inc_remap_{0};
  std::vector<sat::lbool> inc_assigned_;       // per tape var

  // Space accounting (PR 10): cold-storage switch, netlist-derived
  // per-frame reserve estimate, and the footprint charged to `mem_`.
  bool cold_ = false;
  std::size_t est_ops_frame_ = 0;
  std::size_t est_lits_frame_ = 0;
  // SimplifiedDepth/IncDelta payloads, added as each becomes ready
  // (immutable afterwards), so recharging costs O(1) per depth.
  std::size_t cache_bytes_ = 0;
  std::size_t last_charged_ = 0;  // last value pushed to mem_
  MemTracker* mem_ = nullptr;
};

}  // namespace refbmc::bmc
