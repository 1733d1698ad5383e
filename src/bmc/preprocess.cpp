#include "bmc/preprocess.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace refbmc::bmc {

using sat::l_False;
using sat::l_True;
using sat::l_Undef;
using sat::lbool;
using sat::Lit;
using sat::Var;

std::size_t clause_list_bytes(const std::vector<std::vector<Lit>>& cs) {
  std::size_t n = cs.capacity() * sizeof(std::vector<Lit>);
  for (const auto& c : cs) n += c.capacity() * sizeof(Lit);
  return n;
}

void VarRemapper::grow(int num_vars) {
  REFBMC_EXPECTS(num_vars >= this->num_vars());
  slot_.resize(static_cast<std::size_t>(num_vars), kNoSlot);
}

VarRemapper::Witness VarRemapper::resurrect(Var v, int depth) {
  const std::uint32_t s = slot_[static_cast<std::size_t>(v)];
  REFBMC_EXPECTS_MSG(s != kNoSlot, "eliminated variable has no witness");
  Witness& w = witnesses_[s];
  REFBMC_EXPECTS(w.resurrected_at == kNever && w.eliminated_at <= depth);
  w.resurrected_at = depth;
  --live_;
  return w;
}

void VarRemapper::eliminate(Lit lit,
                            std::vector<std::vector<Lit>> clauses,
                            std::vector<std::vector<Lit>> removed,
                            int depth) {
  const auto v = static_cast<std::size_t>(lit.var());
  REFBMC_ASSERT_MSG(slot_[v] == kNoSlot, "a variable is eliminated once");
  REFBMC_ASSERT(witnesses_.empty() ||
                witnesses_.back().eliminated_at <= depth);
  slot_[v] = static_cast<std::uint32_t>(witnesses_.size());
  clause_bytes_ += clause_list_bytes(clauses) + clause_list_bytes(removed);
  witnesses_.push_back(
      Witness{lit, std::move(clauses), std::move(removed), depth, kNever});
  ++live_;
}

VarRemapper VarRemapper::as_of(int k, int num_vars) const {
  VarRemapper out(num_vars);
  for (const Witness& w : witnesses_) {
    if (!w.live_at(k)) continue;
    REFBMC_ASSERT(w.lit.var() < num_vars);
    out.eliminate(w.lit, w.clauses, w.removed, w.eliminated_at);
  }
  return out;
}

void VarRemapper::complete_model(std::vector<lbool>& values) const {
  REFBMC_EXPECTS(values.size() >= slot_.size());
  for (auto it = witnesses_.rbegin(); it != witnesses_.rend(); ++it) {
    if (it->resurrected_at != kNever) continue;  // kept again
    const auto v = static_cast<std::size_t>(it->lit.var());
    // Default: falsify the eliminated literal — this satisfies every
    // removed clause of the opposite polarity (BVE's N side; a pure
    // literal has none).
    values[v] = it->lit.negated() ? l_True : l_False;
    for (const auto& clause : it->clauses) {
      bool satisfied = false;
      for (const Lit l : clause) {
        if (l.var() == it->lit.var()) continue;
        const lbool val = values[static_cast<std::size_t>(l.var())];
        REFBMC_ASSERT(val != l_Undef);
        if ((val ^ l.negated()) == l_True) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        // Flip: every witness clause contains the literal, so the flip
        // satisfies all of them at once.  The removed opposite-polarity
        // clauses stay satisfied by the resolvent argument (their
        // resolvents against this clause are in the simplified formula
        // and hold under `values`).
        values[v] = it->lit.negated() ? l_False : l_True;
        break;
      }
    }
  }
}

namespace {

std::uint64_t signature(const std::vector<Lit>& lits) {
  std::uint64_t s = 0;
  for (const Lit l : lits)
    s |= std::uint64_t{1} << (static_cast<std::uint32_t>(l.var()) & 63u);
  return s;
}

struct PClause {
  std::vector<Lit> lits;  // sorted by Lit::operator<, var-unique
  std::uint64_t sig = 0;
  bool alive = true;

  bool contains(Lit l) const {
    return std::binary_search(lits.begin(), lits.end(), l);
  }
};

/// Clauses larger than this are skipped as subsumption *pivots* (they
/// still get subsumed by smaller ones).  Tape clauses are Tseitin-sized;
/// this only guards pathological resolvents.
constexpr std::size_t kMaxSubsumePivot = 32;

struct Simplifier {
  const PreprocessOptions& opts;
  int num_vars;
  const std::vector<char>& frozen;

  std::vector<PClause> cls;
  std::vector<std::vector<std::uint32_t>> occ;  // by Lit::index(); lazy
  std::vector<std::int32_t> occ_count;          // by Lit::index(); exact
  std::vector<lbool> assigned;                  // by var
  std::vector<char> seeded;                     // by var: fact predates us
  std::vector<Lit> unit_queue;
  VarRemapper remap;
  PreprocessStats stats;
  bool contradiction = false;
  bool changed = false;

  Simplifier(const PreprocessOptions& o, int nv,
             const std::vector<char>& fr, const std::vector<lbool>* seed)
      : opts(o),
        num_vars(nv),
        frozen(fr),
        occ(static_cast<std::size_t>(nv) * 2),
        occ_count(static_cast<std::size_t>(nv) * 2, 0),
        assigned(static_cast<std::size_t>(nv), l_Undef),
        seeded(static_cast<std::size_t>(nv), 0),
        remap(nv) {
    if (seed == nullptr) return;
    REFBMC_EXPECTS(seed->size() == static_cast<std::size_t>(nv));
    // Seeded facts simplify the input like any root assignment but are
    // not new discoveries: they bypass assign() (no units_propagated,
    // no changed flag) and output() never re-emits them.
    for (Var v = 0; v < nv; ++v) {
      const lbool val = (*seed)[static_cast<std::size_t>(v)];
      if (val == l_Undef) continue;
      assigned[static_cast<std::size_t>(v)] = val;
      seeded[static_cast<std::size_t>(v)] = 1;
      unit_queue.push_back(Lit::make(v, val == l_False));
    }
  }

  lbool value(Lit l) const {
    return assigned[static_cast<std::size_t>(l.var())] ^ l.negated();
  }

  void assign(Lit l) {
    const lbool cur = value(l);
    if (cur == l_True) return;
    if (cur == l_False) {
      contradiction = true;
      return;
    }
    assigned[static_cast<std::size_t>(l.var())] =
        l.negated() ? l_False : l_True;
    unit_queue.push_back(l);
    ++stats.units_propagated;
    changed = true;
  }

  void kill(std::uint32_t idx) {
    PClause& c = cls[idx];
    if (!c.alive) return;
    c.alive = false;
    for (const Lit l : c.lits)
      --occ_count[static_cast<std::size_t>(l.index())];
  }

  /// Removes `drop` from clause `idx` (must be present and alive).
  void strengthen(std::uint32_t idx, Lit drop) {
    PClause& c = cls[idx];
    REFBMC_ASSERT(c.alive);
    c.lits.erase(std::find(c.lits.begin(), c.lits.end(), drop));
    --occ_count[static_cast<std::size_t>(drop.index())];
    c.sig = signature(c.lits);
    ++stats.lits_strengthened;
    changed = true;
    if (c.lits.empty()) {
      contradiction = true;
    } else if (c.lits.size() == 1) {
      assign(c.lits[0]);
      kill(idx);
    }
  }

  /// Adds a (sorted, var-unique, non-tautological) clause; units are
  /// folded into the assignment instead of being stored.
  void add_clause(std::vector<Lit> lits) {
    if (lits.empty()) {
      contradiction = true;
      return;
    }
    if (lits.size() == 1) {
      assign(lits[0]);
      return;
    }
    const auto idx = static_cast<std::uint32_t>(cls.size());
    PClause c;
    c.sig = signature(lits);
    c.lits = std::move(lits);
    for (const Lit l : c.lits) {
      occ[static_cast<std::size_t>(l.index())].push_back(idx);
      ++occ_count[static_cast<std::size_t>(l.index())];
    }
    cls.push_back(std::move(c));
  }

  /// Unit propagation to fixpoint.  Maintains the invariant that no
  /// alive clause mentions an assigned variable: clauses containing a
  /// true literal die, false literals are stripped.
  void propagate_units() {
    while (!unit_queue.empty() && !contradiction) {
      const Lit l = unit_queue.back();
      unit_queue.pop_back();
      for (const std::uint32_t idx :
           occ[static_cast<std::size_t>(l.index())]) {
        if (cls[idx].alive && cls[idx].contains(l)) kill(idx);
      }
      occ[static_cast<std::size_t>(l.index())].clear();
      // Copy: strengthen() may enqueue and we clear the list below.
      const std::vector<std::uint32_t> neg_occ =
          occ[static_cast<std::size_t>((~l).index())];
      occ[static_cast<std::size_t>((~l).index())].clear();
      for (const std::uint32_t idx : neg_occ) {
        if (!cls[idx].alive || !cls[idx].contains(~l)) continue;
        strengthen(idx, ~l);
        if (contradiction) return;
      }
    }
  }

  /// Walks occ[l], compacting dead/stale entries in place, and calls
  /// fn(idx) for each alive clause that really contains l.
  template <typename Fn>
  void for_occ(Lit l, Fn&& fn) {
    auto& list = occ[static_cast<std::size_t>(l.index())];
    std::size_t out = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint32_t idx = list[i];
      if (!cls[idx].alive || !cls[idx].contains(l)) continue;
      list[out++] = idx;
      fn(idx);
    }
    list.resize(out);
  }

  // ---- subsumption / self-subsuming resolution ------------------------
  enum class SubCheck { Subsumes, Strengthens, Fail };

  /// Merge-walk: does C subsume D (C ⊆ D), or does C with exactly one
  /// literal flipped subsume D (self-subsuming resolution: D loses the
  /// flipped literal's negation)?  Both are sorted and var-unique, and
  /// Lit ordering is var-major, so one pass decides.
  SubCheck subsume_check(const PClause& c, const PClause& d,
                         Lit& flipped) const {
    std::size_t j = 0;
    int flips = 0;
    for (const Lit lc : c.lits) {
      while (j < d.lits.size() && d.lits[j].var() < lc.var()) ++j;
      if (j == d.lits.size() || d.lits[j].var() != lc.var())
        return SubCheck::Fail;
      if (d.lits[j] != lc) {
        if (++flips > 1) return SubCheck::Fail;
        flipped = lc;
      }
      ++j;
    }
    return flips == 0 ? SubCheck::Subsumes : SubCheck::Strengthens;
  }

  void subsume_round() {
    const auto pivots = static_cast<std::uint32_t>(cls.size());
    for (std::uint32_t i = 0; i < pivots && !contradiction; ++i) {
      if (!cls[i].alive || cls[i].lits.size() > kMaxSubsumePivot) continue;
      // Cheapest literal to walk: fewest occurrences across both
      // polarities (every superset of C shows up in one of the two).
      Lit lmin = cls[i].lits[0];
      std::int32_t best = INT32_MAX;
      for (const Lit l : cls[i].lits) {
        const std::int32_t n =
            occ_count[static_cast<std::size_t>(l.index())] +
            occ_count[static_cast<std::size_t>((~l).index())];
        if (n < best) {
          best = n;
          lmin = l;
        }
      }
      for (const Lit probe : {lmin, ~lmin}) {
        // Snapshot: strengthen() can mutate occ lists via unit folding.
        std::vector<std::uint32_t> candidates;
        for_occ(probe, [&](std::uint32_t idx) {
          if (idx != i) candidates.push_back(idx);
        });
        for (const std::uint32_t j : candidates) {
          if (!cls[i].alive) break;  // i itself got strengthened to unit
          if (!cls[j].alive || cls[j].lits.size() < cls[i].lits.size())
            continue;
          if ((cls[i].sig & ~cls[j].sig) != 0) continue;
          Lit flipped = sat::kLitUndef;
          switch (subsume_check(cls[i], cls[j], flipped)) {
            case SubCheck::Subsumes:
              kill(j);
              ++stats.clauses_subsumed;
              changed = true;
              break;
            case SubCheck::Strengthens:
              strengthen(j, ~flipped);
              break;
            case SubCheck::Fail:
              break;
          }
          if (contradiction) return;
        }
      }
    }
  }

  // ---- pure / unused literal elimination ------------------------------
  bool eliminable(Var v) const {
    return frozen[static_cast<std::size_t>(v)] == 0 &&
           assigned[static_cast<std::size_t>(v)] == l_Undef &&
           remap.is_kept(v);
  }

  void pure_round() {
    for (Var v = 0; v < num_vars && !contradiction; ++v) {
      if (!eliminable(v)) continue;
      const Lit pos = Lit::make(v);
      const std::int32_t np = occ_count[static_cast<std::size_t>(pos.index())];
      const std::int32_t nn =
          occ_count[static_cast<std::size_t>((~pos).index())];
      if (np == 0 && nn == 0) {
        remap.eliminate(pos, {});
        ++stats.vars_eliminated;
        changed = true;
        continue;
      }
      if (np != 0 && nn != 0) continue;
      const Lit pure = np != 0 ? pos : ~pos;
      std::vector<std::vector<Lit>> witness;
      std::vector<std::uint32_t> holders;
      for_occ(pure, [&](std::uint32_t idx) { holders.push_back(idx); });
      for (const std::uint32_t idx : holders) {
        witness.push_back(cls[idx].lits);
        kill(idx);
      }
      remap.eliminate(pure, std::move(witness));
      ++stats.vars_eliminated;
      ++stats.pure_literals;
      changed = true;
    }
  }

  // ---- bounded variable elimination (NiVER) ---------------------------
  /// Resolvent of p (contains pos) and n (contains ~pos): merged minus
  /// the pivot pair, deduplicated.  Returns false for tautologies.
  bool resolve(const std::vector<Lit>& p, const std::vector<Lit>& n,
               Lit pos, std::vector<Lit>& out) const {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < p.size() || j < n.size()) {
      Lit next;
      if (j == n.size() || (i < p.size() && p[i] < n[j])) {
        next = p[i++];
      } else if (i == p.size() || n[j] < p[i]) {
        next = n[j++];
      } else {
        next = p[i++];
        ++j;  // identical literal in both parents
      }
      if (next.var() == pos.var()) continue;  // pivot pair drops out
      if (!out.empty() && out.back().var() == next.var()) {
        if (out.back() != next) return false;  // tautology
        continue;
      }
      out.push_back(next);
    }
    return true;
  }

  void bve_round() {
    std::vector<Lit> resolvent;
    for (Var v = 0; v < num_vars && !contradiction; ++v) {
      if (!eliminable(v)) continue;
      const Lit pos = Lit::make(v);
      const std::int32_t np = occ_count[static_cast<std::size_t>(pos.index())];
      const std::int32_t nn =
          occ_count[static_cast<std::size_t>((~pos).index())];
      if (np == 0 || nn == 0) continue;  // pure_round's job
      if (np + nn > opts.bve_budget) continue;

      std::vector<std::uint32_t> p_idx, n_idx;
      for_occ(pos, [&](std::uint32_t idx) { p_idx.push_back(idx); });
      for_occ(~pos, [&](std::uint32_t idx) { n_idx.push_back(idx); });

      // NiVER acceptance: non-tautological resolvents must not
      // outnumber the clauses they replace, and must stay short.
      std::vector<std::vector<Lit>> resolvents;
      const std::size_t limit = p_idx.size() + n_idx.size();
      bool ok = true;
      for (const std::uint32_t pi : p_idx) {
        for (const std::uint32_t ni : n_idx) {
          if (!resolve(cls[pi].lits, cls[ni].lits, pos, resolvent)) continue;
          if (resolvent.size() >
                  static_cast<std::size_t>(opts.bve_max_resolvent) ||
              resolvents.size() == limit) {
            ok = false;
            break;
          }
          resolvents.push_back(resolvent);
        }
        if (!ok) break;
      }
      if (!ok) continue;

      // Witness: the positive occurrence list.  The default completion
      // (v = false) satisfies the negative side; the flip case is
      // covered by the resolvents now entering the formula.  The
      // negative side rides along as the resurrection kit's other half.
      std::vector<std::vector<Lit>> witness, removed;
      witness.reserve(p_idx.size());
      removed.reserve(n_idx.size());
      for (const std::uint32_t pi : p_idx) witness.push_back(cls[pi].lits);
      for (const std::uint32_t ni : n_idx) removed.push_back(cls[ni].lits);
      for (const std::uint32_t pi : p_idx) kill(pi);
      for (const std::uint32_t ni : n_idx) kill(ni);
      remap.eliminate(pos, std::move(witness), std::move(removed));
      ++stats.vars_eliminated;
      changed = true;
      for (auto& r : resolvents) add_clause(std::move(r));
      propagate_units();
    }
  }

  void load(const std::vector<std::vector<Lit>>& input) {
    stats.clauses_in = input.size();
    for (const auto& raw : input) {
      stats.lits_in += raw.size();
      std::vector<Lit> c(raw);
      std::sort(c.begin(), c.end());
      c.erase(std::unique(c.begin(), c.end()), c.end());
      bool taut = false;
      for (std::size_t i = 0; i + 1 < c.size(); ++i) {
        if (c[i].var() == c[i + 1].var()) {
          taut = true;
          break;
        }
      }
      if (taut) continue;  // vacuous on any assignment
      add_clause(std::move(c));
      if (contradiction) return;
    }
  }

  void run() {
    propagate_units();
    for (int round = 0; round < opts.rounds && !contradiction; ++round) {
      changed = false;
      subsume_round();
      propagate_units();
      if (contradiction) break;
      pure_round();
      bve_round();
      if (!changed) break;
    }
  }

  std::vector<std::vector<Lit>> output() {
    std::vector<std::vector<Lit>> out;
    // Root facts first (the solver derives the same level-0 state the
    // unsimplified replay would have reached), then survivors in tape
    // order — fully deterministic.
    for (Var v = 0; v < num_vars; ++v) {
      if (seeded[static_cast<std::size_t>(v)] != 0) continue;
      const lbool val = assigned[static_cast<std::size_t>(v)];
      if (val != l_Undef) out.push_back({Lit::make(v, val == l_False)});
    }
    for (const PClause& c : cls) {
      if (c.alive) out.push_back(c.lits);
    }
    for (const auto& c : out) stats.lits_out += c.size();
    stats.clauses_out = out.size();
    return out;
  }
};

}  // namespace

SimplifyResult TapePreprocessor::run(
    int num_vars, const std::vector<std::vector<Lit>>& clauses,
    const std::vector<char>& frozen,
    const std::vector<lbool>* seed) const {
  REFBMC_EXPECTS(frozen.size() == static_cast<std::size_t>(num_vars));
  const std::uint64_t t0 = obs::monotonic_now_us();

  Simplifier s(opts_, num_vars, frozen, seed);
  s.load(clauses);
  if (!s.contradiction) s.run();

  SimplifyResult result;
  if (s.contradiction) {
    // A definitional tape should never be refutable by preprocessing
    // alone; if it happens (degenerate input), hand the solver the
    // original formula so verdicts and cores stay authoritative.
    result.clauses = clauses;
    result.remap = VarRemapper(num_vars);
    if (seed != nullptr) result.assigned = *seed;
    result.assigned.resize(static_cast<std::size_t>(num_vars), l_Undef);
    result.fell_back = true;
    result.stats.clauses_in = clauses.size();
    result.stats.clauses_out = clauses.size();
    for (const auto& c : clauses) {
      result.stats.lits_in += c.size();
      result.stats.lits_out += c.size();
    }
  } else {
    result.clauses = s.output();
    result.remap = std::move(s.remap);
    result.stats = s.stats;
    result.assigned = std::move(s.assigned);
  }
  result.stats.preprocess_us = obs::monotonic_now_us() - t0;
  return result;
}

}  // namespace refbmc::bmc
