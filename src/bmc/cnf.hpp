// BMC instance container: the CNF of Eq. 1 plus the variable-origin map
// that ties every CNF variable back to a (netlist node, time frame) pair
// — its owner — plus every other (node, frame) the encoder folded onto
// it (its aliases, see OriginMap).
//
// The origin map is what makes the paper's ordering transferable between
// instances: unsat-core variables of instance k are projected onto the
// model ("register") axis through it, and the accumulated model-level
// scores are pushed back down to the CNF variables of instance k+1.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "model/netlist.hpp"
#include "sat/dimacs.hpp"
#include "sat/types.hpp"

namespace refbmc::bmc {

/// Where a CNF variable came from.
struct VarOrigin {
  model::NodeId node = model::kConstNode;
  int frame = -1;  // -1 for the auxiliary constant-false variable
};

/// The alias-aware var → model-node map of one CNF variable space.
///
/// Every variable has an OWNER: the (node, frame) it was created for
/// (operator[]).  Frame-wise simplification (encoder.hpp) gives no
/// variable of its own to a (node, frame) whose value it folds to a
/// constant, strashes onto an existing gate, or aliases to a latch's
/// next-state literal; that node's value IS another variable's literal,
/// and the map records it as an ALIAS of that variable.  A variable
/// therefore stands for its owner node plus every alias node — the set
/// core projection and rank projection walk (ranking.hpp).
///
/// Invariant (kept by the encoder, preserved by replay, which only
/// translates variables injectively): no alias repeats its variable's
/// owner node or another alias node of the same variable, so summing
/// over a variable's nodes counts each node once.  No alias names
/// kConstNode.
class OriginMap {
 public:
  struct Alias {
    sat::Var var;
    VarOrigin origin;
    std::uint32_t next;  // older alias of the same var, or kNone
  };

  OriginMap() = default;
  OriginMap(std::initializer_list<VarOrigin> owners) : owner_(owners) {}

  std::size_t size() const { return owner_.size(); }
  /// The owner of variable v.
  const VarOrigin& operator[](std::size_t v) const { return owner_[v]; }

  /// Appends the next variable, owned by `o`.
  void push_back(const VarOrigin& o) { owner_.push_back(o); }
  /// Records that existing variable v also stands for `alias`.
  void add_alias(sat::Var v, const VarOrigin& alias) {
    const auto idx = static_cast<std::size_t>(v);
    if (head_.size() <= idx) head_.resize(idx + 1, kNone);
    alias_.push_back(Alias{v, alias, head_[idx]});
    head_[idx] = static_cast<std::uint32_t>(alias_.size() - 1);
  }

  /// Aliases in insertion order (the replay stream of a tape).
  std::size_t num_aliases() const { return alias_.size(); }
  const Alias& alias_at(std::size_t i) const { return alias_[i]; }

  /// Calls f(index, origin) for every alias of v, newest first.
  template <class F>
  void for_each_alias(sat::Var v, F&& f) const {
    const auto idx = static_cast<std::size_t>(v);
    if (idx >= head_.size()) return;
    for (std::uint32_t a = head_[idx]; a != kNone; a = alias_[a].next)
      f(static_cast<std::size_t>(a), alias_[a].origin);
  }

  void clear() {
    owner_.clear();
    head_.clear();
    alias_.clear();
  }
  std::size_t memory_bytes() const {
    return owner_.capacity() * sizeof(VarOrigin) +
           head_.capacity() * sizeof(std::uint32_t) +
           alias_.capacity() * sizeof(Alias);
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<VarOrigin> owner_;
  std::vector<std::uint32_t> head_;  // per var (sized lazily): newest alias
  std::vector<Alias> alias_;
};

/// Encoder counters (filled by the FrameEncoder; see encoder.hpp).
struct EncodeStats {
  std::uint64_t frames_encoded = 0;
  std::uint64_t vars_emitted = 0;
  std::uint64_t clauses_emitted = 0;
  std::uint64_t vars_removed = 0;    // saved by simplification
  std::uint64_t clauses_removed = 0;
  /// Phase wall-times, cumulative over all encoded frames: encode_ns is
  /// the whole per-frame sweep (simplification included — it is fused
  /// into gate emission); simplify_ns is the gate-level fold/strash
  /// machinery's share of it, the separable part of that fusion.  The
  /// engine turns deltas of these into DepthStats::simplify_us.
  std::uint64_t encode_ns = 0;
  std::uint64_t simplify_ns = 0;
};

struct BmcInstance {
  int depth = 0;                  // the k of Eq. 1
  sat::Cnf cnf;                   // clauses of Eq. 1
  OriginMap origin;               // per CNF variable, with aliases
  sat::Lit bad_lit;               // literal asserted by the ¬P(V^k) unit
  /// Literal of the bad signal at each frame 0..depth (filled by the
  /// encoder; used by induction and custom property shapes).
  std::vector<sat::Lit> bad_frames;
  /// Literal of each latch at each frame: latch_frames[f][i] is the
  /// i-th cone latch (order of latches()) at frame f.  With frame-wise
  /// simplification a latch may alias another literal (its next-state
  /// function, a hashed gate, or a constant) rather than owning a
  /// variable.
  std::vector<std::vector<sat::Lit>> latch_frames;
  /// Encoder counters for this instance (simplification savings etc.).
  EncodeStats encode;

  std::size_t num_vars() const { return origin.size(); }
  std::size_t num_clauses() const { return cnf.clauses.size(); }
  std::uint64_t num_literals() const {
    std::uint64_t n = 0;
    for (const auto& c : cnf.clauses) n += c.size();
    return n;
  }
};

}  // namespace refbmc::bmc
