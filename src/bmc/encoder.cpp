#include "bmc/encoder.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "util/assert.hpp"

namespace refbmc::bmc {

using model::NodeId;
using model::NodeKind;
using model::Signal;
using sat::Lit;

FrameEncoder::FrameEncoder(const model::Netlist& net, ClauseSink& sink,
                           std::size_t bad_index, EncoderOptions opts)
    : net_(net), sink_(sink), opts_(opts) {
  REFBMC_EXPECTS_MSG(bad_index < net.bad_properties().size(),
                     "model has no such bad property");
  bad_ = net.bad_properties()[bad_index].signal;
  cone_ = net.cone_of_influence({bad_});
  in_cone_.assign(net.num_nodes(), 0);
  for (const NodeId id : cone_) in_cone_[id] = 1;

  // Auxiliary constant-false variable, constrained by a unit clause.
  const sat::Var cv = sink_.add_var(VarOrigin{model::kConstNode, -1});
  owner_.push_back(model::kConstNode);
  ++stats_.vars_emitted;
  false_lit_ = Lit::make(cv);
  emit(std::array<Lit, 1>{~false_lit_});
}

sat::Lit FrameEncoder::fresh(NodeId node, int frame) {
  ++stats_.vars_emitted;
  owner_.push_back(node);
  return Lit::make(sink_.add_var(VarOrigin{node, frame}));
}

void FrameEncoder::note_alias(NodeId node, int frame, Lit l) {
  const sat::Var v = l.var();
  if (owner_[static_cast<std::size_t>(v)] == node) return;
  if (aliased_.empty()) aliased_.resize(net_.num_nodes());
  std::vector<sat::Var>& seen = aliased_[node];
  if (std::find(seen.rbegin(), seen.rend(), v) != seen.rend()) return;
  seen.push_back(v);
  sink_.add_alias(v, VarOrigin{node, frame});
}

void FrameEncoder::emit(std::span<const Lit> lits) {
  ++stats_.clauses_emitted;
  sink_.add_clause(lits);
}

sat::Lit FrameEncoder::lit_of(Signal s, int frame) const {
  if (s.is_const()) return s.negated() ? ~false_lit_ : false_lit_;
  REFBMC_EXPECTS(frame >= 0 && frame <= encoded_depth_);
  const Lit l = val(s.node(), frame);
  REFBMC_ASSERT_MSG(!l.is_undef(), "signal outside the cone of influence");
  return s.negated() ? ~l : l;
}

sat::Lit FrameEncoder::and_lit(Lit a, Lit b, const VarOrigin& origin) {
  if (opts_.simplify) {
    // Timed per gate: folding + the strash probe are the separable
    // simplification work (EncodeStats::simplify_ns).  The clock pair
    // costs tens of ns against a strash probe of the same order, so the
    // reading is coarse — but encoding is a sliver of total runtime and
    // the per-depth *split* (simplify vs emission) is what DepthStats
    // needs.  Emission below is excluded.
    const auto t0 = std::chrono::steady_clock::now();
    const auto charge = [&] {
      stats_.simplify_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    };
    const Lit f = false_lit_, t = ~false_lit_;
    Lit folded = sat::kLitUndef;
    if (a == f || b == f || a == ~b) {
      folded = f;
    } else if (a == t) {
      folded = b;
    } else if (b == t || a == b) {
      folded = a;
    }
    if (!folded.is_undef()) {
      ++stats_.vars_removed;
      stats_.clauses_removed += 3;
      charge();
      return folded;
    }
    const std::uint32_t lo =
        static_cast<std::uint32_t>(std::min(a.index(), b.index()));
    const std::uint32_t hi =
        static_cast<std::uint32_t>(std::max(a.index(), b.index()));
    const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) | hi;
    const auto it = strash_.find(key);
    if (it != strash_.end()) {
      ++stats_.vars_removed;
      stats_.clauses_removed += 3;
      charge();
      return it->second;
    }
    charge();
    const Lit out = fresh(origin.node, origin.frame);
    emit(std::array<Lit, 2>{~out, a});
    emit(std::array<Lit, 2>{~out, b});
    emit(std::array<Lit, 3>{out, ~a, ~b});
    strash_.emplace(key, out);
    return out;
  }
  const Lit out = fresh(origin.node, origin.frame);
  emit(std::array<Lit, 2>{~out, a});
  emit(std::array<Lit, 2>{~out, b});
  emit(std::array<Lit, 3>{out, ~a, ~b});
  return out;
}

void FrameEncoder::encode_frame(int f) {
  val_.resize(static_cast<std::size_t>(f + 1) * net_.num_nodes(),
              sat::kLitUndef);
  // cone_ is sorted by NodeId and fanins precede AND nodes, so ascending
  // order is a topological sweep of the frame; latch next-state functions
  // only reference frame f-1, which is complete.
  for (const NodeId id : cone_) {
    switch (net_.kind(id)) {
      case NodeKind::Const:
        val(id, f) = false_lit_;
        break;
      case NodeKind::Input:
        val(id, f) = fresh(id, f);
        break;
      case NodeKind::Latch: {
        if (f == 0) {
          const sat::lbool init = net_.latch_init(id);
          if (opts_.constrain_init && !init.is_undef()) {
            if (opts_.simplify) {
              // Constant propagation: the initial value IS the literal.
              val(id, 0) = init.is_true() ? ~false_lit_ : false_lit_;
              ++stats_.vars_removed;
              ++stats_.clauses_removed;
            } else {
              const Lit l = fresh(id, 0);
              val(id, 0) = l;
              emit(std::array<Lit, 1>{init.is_true() ? l : ~l});
            }
          } else {
            val(id, 0) = fresh(id, 0);  // unconstrained initial value
          }
        } else {
          const Lit prev_next = lit_of(net_.latch_next(id), f - 1);
          if (opts_.simplify) {
            // Latch aliasing: no coupling clauses, no variable.
            val(id, f) = prev_next;
            ++stats_.vars_removed;
            stats_.clauses_removed += 2;
          } else {
            const Lit cur = fresh(id, f);
            val(id, f) = cur;
            emit(std::array<Lit, 2>{~cur, prev_next});
            emit(std::array<Lit, 2>{cur, ~prev_next});
          }
        }
        break;
      }
      case NodeKind::And: {
        const model::Node& n = net_.node(id);
        const Lit a = lit_of(n.fanin0, f);
        const Lit b = lit_of(n.fanin1, f);
        val(id, f) = and_lit(a, b, VarOrigin{id, f});
        break;
      }
    }
    // With simplify off every cone node owns its variable, so this only
    // ever fires for the folds, strash hits and latch aliases above.
    if (id != model::kConstNode) note_alias(id, f, val(id, f));
  }

  if (opts_.mode == BadMode::Any) {
    // Prefix disjunction d_f ↔ d_{f-1} ∨ bad_f, via the AND machinery:
    // d = ¬(¬d_{f-1} ∧ ¬bad_f).  Monotone in f, so it lives in the same
    // append-only stream as the frames.
    const Lit b = lit_of(bad_, f);
    any_.push_back(
        f == 0 ? b
               : ~and_lit(~any_.back(), ~b,
                          VarOrigin{model::kConstNode, -2}));
  }
}

void FrameEncoder::encode_to(int k) {
  REFBMC_EXPECTS(k >= 0);
  while (encoded_depth_ < k) {
    const auto t0 = std::chrono::steady_clock::now();
    encode_frame(++encoded_depth_);
    stats_.encode_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++stats_.frames_encoded;
  }
}

sat::Lit FrameEncoder::property(int k) const {
  REFBMC_EXPECTS(k >= 0 && k <= encoded_depth_);
  if (opts_.mode == BadMode::Any)
    return any_[static_cast<std::size_t>(k)];
  return lit_of(bad_, k);
}

std::vector<sat::Lit> FrameEncoder::latch_lits(int frame) const {
  std::vector<Lit> out;
  for (const NodeId id : net_.latches())
    if (in_cone_[id]) out.push_back(lit_of(model::Signal::make(id), frame));
  return out;
}

namespace {

BmcInstance encode_frames(const model::Netlist& net, std::size_t bad_index,
                          int k, EncoderOptions opts, bool assert_property) {
  REFBMC_EXPECTS(k >= 0);
  BmcInstance inst;
  inst.depth = k;
  InstanceSink sink(inst);
  FrameEncoder enc(net, sink, bad_index, opts);
  enc.encode_to(k);

  const int frames = k + 1;
  inst.bad_frames.reserve(static_cast<std::size_t>(frames));
  inst.latch_frames.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    inst.bad_frames.push_back(enc.bad(f));
    inst.latch_frames.push_back(enc.latch_lits(f));
  }
  if (assert_property) {
    inst.bad_lit = enc.property(k);
    inst.cnf.add_clause({inst.bad_lit});
  }
  inst.encode = enc.stats();
  return inst;
}

}  // namespace

BmcInstance encode_full(const model::Netlist& net, std::size_t bad_index,
                        int k, EncoderOptions opts) {
  return encode_frames(net, bad_index, k, opts, /*assert_property=*/true);
}

BmcInstance encode_path(const model::Netlist& net, std::size_t bad_index,
                        int k, EncoderOptions opts) {
  return encode_frames(net, bad_index, k, opts, /*assert_property=*/false);
}

}  // namespace refbmc::bmc
