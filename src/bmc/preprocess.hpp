// Tape-level CNF preprocessing (paper-adjacent perf layer; ROADMAP
// "Inprocessing + formula preprocessing layer").
//
// The tape pipeline simplifies at the AIG level (constprop, strashing,
// latch aliasing), but the CNF that reaches the racing solvers is the
// raw Tseitin encoding.  This pass simplifies the *clause* level once
// per encoded depth, before replay into a scratch solver:
//
//   * unit propagation to fixpoint (root units stay in the output, so
//     the solver sees the same level-0 facts it would have derived);
//   * subsumption and self-subsuming resolution, occurrence lists +
//     64-bit signature filtering (SatELite's backward-subsumption idiom);
//   * pure-literal elimination;
//   * bounded variable elimination (NiVER: eliminate v only when the
//     non-tautological resolvents do not outnumber the clauses they
//     replace, under an occurrence budget and a resolvent-size cap).
//
// Soundness contract with the rest of the race:
//
//   * Variable numbering is PRESERVED.  Eliminated tape variables simply
//     never reach the solver (their var_map slot is sat::kVarUndef), so
//     VarOrigin projection — extract_trace, CDG core vars, RankProjector,
//     PoolEndpoint — keeps working unchanged on the kept variables.
//   * Every simplified clause is implied by the original tape range, so
//     lemmas derived from the simplified formula are tape-implied and
//     safe to export to the shared pool; imported lemmas over eliminated
//     variables are dropped at the endpoint (they can never bind here).
//   * FROZEN variables are never eliminated: inputs and latches (trace
//     extraction and cross-depth identity), per-frame property/bad
//     literals (assumption guards), and the encoder's auxiliary
//     constant variables.  Frozen variables may still be *assigned* by
//     unit propagation — the unit stays in the output, so the solver
//     derives the same root fact.
//   * Eliminated variables carry a witness (the clauses removed with
//     them): VarRemapper::complete_model extends any model of the
//     simplified formula to a model of the original, which is what makes
//     the elimination sound and lets tests check full-model round trips.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/types.hpp"

namespace refbmc::bmc {

/// Knobs for the tape pass.  Equality-comparable: shard groups and
/// shared tapes must agree on the exact configuration or their solvers
/// would race on different formulas (scheduler group key / engine
/// shared-tape assert).
struct PreprocessOptions {
  bool enabled = false;
  /// NiVER occurrence budget: variable v is a candidate only while
  /// occ(v) + occ(~v) <= bve_budget.
  int bve_budget = 16;
  /// Resolvent-size cap: an elimination producing any resolvent longer
  /// than this is rejected (keeps clauses short even when counts allow).
  int bve_max_resolvent = 24;
  /// Maximum simplification rounds (each = subsume/SSR + pure + BVE +
  /// unit propagation); stops early at fixpoint.
  int rounds = 3;

  friend bool operator==(const PreprocessOptions&,
                         const PreprocessOptions&) = default;
};

struct PreprocessStats {
  std::uint64_t vars_eliminated = 0;  // BVE + pure + zero-occurrence
  std::uint64_t pure_literals = 0;    // subset of vars_eliminated
  std::uint64_t clauses_subsumed = 0;
  std::uint64_t lits_strengthened = 0;  // self-subsumption + UP strips
  std::uint64_t units_propagated = 0;
  std::uint64_t clauses_in = 0;
  std::uint64_t clauses_out = 0;
  std::uint64_t lits_in = 0;
  std::uint64_t lits_out = 0;
  std::uint64_t preprocess_us = 0;
};

/// Heap held by a clause list: its vector slots plus every clause's
/// literal capacity.
std::size_t clause_list_bytes(const std::vector<std::vector<sat::Lit>>& cs);

/// Tape-var → solver-space bookkeeping for eliminated variables.
///
/// Kept variables keep their tape numbering (the session's var_map does
/// the tape→solver translation as before); eliminated variables carry a
/// witness entry so models extend back.  Witnesses are completed in
/// REVERSE elimination order: each entry's clauses may mention variables
/// eliminated later (already completed) or kept variables, never
/// variables eliminated earlier (their clauses were gone by then).
///
/// The witness list is a depth-tagged HISTORY.  The incremental delta
/// pass keeps one remapper across all depths: each entry records the
/// depth its variable was eliminated at and, once a later delta
/// resurrects the variable, the depth of that resurrection.  Entries are
/// never removed, so every witness is stored exactly once however many
/// depths follow, and the state "as of depth k" — every entry eliminated
/// at or before k and not resurrected at or before k, in elimination
/// order — can be rebuilt on demand (as_of).  Single-shot passes tag
/// everything depth 0 and never resurrect.
class VarRemapper {
 public:
  /// resurrected_at of an entry whose variable is still eliminated.
  static constexpr int kNever = INT32_MAX;

  struct Witness {
    /// The eliminated literal; every stored clause contains it.
    sat::Lit lit;
    /// The clauses removed with the variable (BVE: the positive
    /// occurrence list; pure: all occurrences; zero-occ: empty).
    std::vector<std::vector<sat::Lit>> clauses;
    /// The remaining clauses removed with the variable (BVE: the
    /// negative occurrence list; empty otherwise).  `clauses` +
    /// `removed` together are the variable's full resurrection kit:
    /// re-adding both restores every constraint the elimination
    /// deleted, which is what lets an *incremental* delta reference a
    /// variable eliminated at an earlier depth (global strashing makes
    /// later frames point at earlier gate variables).
    std::vector<std::vector<sat::Lit>> removed;
    /// Depth of the elimination, and of the resurrection (kNever while
    /// the variable stays eliminated).
    int eliminated_at = 0;
    int resurrected_at = kNever;

    /// Whether the variable is eliminated in the state as of depth k.
    bool live_at(int k) const {
      return eliminated_at <= k && resurrected_at > k;
    }
  };

  VarRemapper() = default;
  explicit VarRemapper(int num_vars)
      : slot_(static_cast<std::size_t>(num_vars), kNoSlot) {}

  int num_vars() const { return static_cast<int>(slot_.size()); }
  bool is_kept(sat::Var v) const {
    const std::uint32_t s = slot_[static_cast<std::size_t>(v)];
    return s == kNoSlot || witnesses_[s].resurrected_at != kNever;
  }
  /// Variables eliminated now (resurrected entries excluded).
  std::size_t num_eliminated() const { return live_; }
  /// The whole history in elimination order, resurrected entries
  /// included (a remapper that never resurrected holds only live ones).
  const std::vector<Witness>& witnesses() const { return witnesses_; }

  /// Appends newly encoded tape variables (kept by default).  Used by
  /// the incremental delta pass, whose variable universe grows with
  /// each depth while the witness history persists.
  void grow(int num_vars);

  /// Re-admits an eliminated variable at `depth`: marks its entry
  /// resurrected (found through the per-variable index) and returns a
  /// copy of it.  The caller must re-add the copy's `clauses` +
  /// `removed` kit to the formula — afterwards the variable behaves as
  /// if it had never been eliminated, and `complete_model` reads its
  /// value from the solver model like any kept variable.  The entry
  /// stays in the history so states before `depth` can be rebuilt.
  Witness resurrect(sat::Var v, int depth);

  /// Marks lit.var() eliminated at `depth`, recording its witness
  /// clauses (each must contain `lit`) plus the opposite-polarity
  /// clauses removed with it (resurrection kit; not consulted by
  /// complete_model).  A variable is eliminated at most once — the
  /// incremental pass freezes every earlier-depth variable, so a
  /// resurrected one never becomes a candidate again — and depths are
  /// non-decreasing along the history.
  void eliminate(sat::Lit lit, std::vector<std::vector<sat::Lit>> clauses,
                 std::vector<std::vector<sat::Lit>> removed = {},
                 int depth = 0);

  /// Extends a model of the simplified formula (tape-var indexed; kept
  /// variables assigned, eliminated ones l_Undef) to a model of the
  /// original formula.  Default: falsify the witness literal (which
  /// satisfies the removed opposite-polarity clauses); flip only when
  /// some witness clause is otherwise unsatisfied (the flip satisfies
  /// all of them — they all contain the literal).  Resurrected entries
  /// are skipped: their variables are kept.
  void complete_model(std::vector<sat::lbool>& values) const;

  /// The state as of depth k over the first `num_vars` variables: the
  /// entries live at k (see Witness::live_at), in elimination order,
  /// with no resurrections recorded.  Every live entry's variable must
  /// lie below `num_vars`.
  VarRemapper as_of(int k, int num_vars) const;

  /// Heap footprint: the per-variable index, the history's entries and
  /// every stored clause.  Kept up to date by eliminate(), O(1).
  std::size_t memory_bytes() const {
    return slot_.capacity() * sizeof(std::uint32_t) +
           witnesses_.capacity() * sizeof(Witness) + clause_bytes_;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Per tape var: index of its entry in witnesses_, or kNoSlot if it
  /// was never eliminated.
  std::vector<std::uint32_t> slot_;
  std::vector<Witness> witnesses_;  // elimination order, depth-tagged
  std::size_t live_ = 0;            // entries not resurrected
  std::size_t clause_bytes_ = 0;    // heap held by the entries' clauses
};

struct SimplifyResult {
  /// Simplified clauses in tape variable space: unit clauses for every
  /// root-level fact first, then the surviving clauses in tape order.
  /// Deterministic for a given (clauses, frozen, options) input.
  std::vector<std::vector<sat::Lit>> clauses;
  VarRemapper remap;
  PreprocessStats stats;
  /// Post-run root assignment per tape variable (includes any seeded
  /// facts).  The incremental pass carries this across depths so later
  /// deltas are simplified against everything already known.
  std::vector<sat::lbool> assigned;
  /// True when the pass derived the empty clause (should not happen on
  /// a definitional tape) and returned the input unsimplified.
  bool fell_back = false;
};

class TapePreprocessor {
 public:
  explicit TapePreprocessor(PreprocessOptions opts) : opts_(opts) {}

  /// Simplifies `clauses` (over variables 0..num_vars-1) with the
  /// variables marked in `frozen` (size num_vars) protected from
  /// elimination.  Pure function of its inputs; thread-safe.
  ///
  /// `seed` (optional, size num_vars) pre-assigns root facts from
  /// earlier incremental deltas: seeded literals simplify the input
  /// (satisfied clauses die, false literals strip) but are neither
  /// counted as new units nor re-emitted in the output — the consuming
  /// solver already owns them.
  SimplifyResult run(int num_vars,
                     const std::vector<std::vector<sat::Lit>>& clauses,
                     const std::vector<char>& frozen,
                     const std::vector<sat::lbool>* seed = nullptr) const;

 private:
  PreprocessOptions opts_;
};

}  // namespace refbmc::bmc
