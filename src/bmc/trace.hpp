// Counter-example traces: extraction from a satisfying assignment and
// validation by replay on the circuit simulator.
#pragma once

#include <string>
#include <vector>

#include "bmc/cnf.hpp"
#include "model/netlist.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {

struct Trace {
  /// Transitions before the violating frame (the k of Eq. 1).
  int depth = 0;
  /// inputs[f][i] = value of the i-th primary input (Netlist::inputs()
  /// order) at frame f; frames 0..depth inclusive.
  std::vector<std::vector<bool>> inputs;
  /// Values for uninitialised latches at frame 0 (Netlist::latches()
  /// order; entries for latches with fixed init hold that fixed value).
  std::vector<bool> initial_latches;
  /// Frame at which the bad signal fires (== depth for BadMode::Last).
  int bad_frame = 0;

  std::string to_string(const model::Netlist& net) const;
};

/// Reads a counter-example of length `depth` out of `solver`'s model,
/// locating circuit values through the `origin` map (solver var →
/// (node, frame)).  Inputs/latches outside the cone of influence — or
/// simplified away by the encoder — default to 0.
Trace extract_trace(const model::Netlist& net, int depth,
                    const OriginMap& origin,
                    const sat::Solver& solver);

/// Convenience for instance buffers.
inline Trace extract_trace(const model::Netlist& net, const BmcInstance& inst,
                           const sat::Solver& solver) {
  return extract_trace(net, inst.depth, inst.origin, solver);
}

/// Replays the trace on the simulator; returns true iff the bad signal of
/// `bad_index` is 1 at some frame ≤ trace.depth (and records it — the
/// check BMC results are held to in tests and the engine's self-check).
bool validate_trace(const model::Netlist& net, const Trace& trace,
                    std::size_t bad_index = 0);

/// Greedily simplifies a counter-example for human consumption: tries to
/// force every input bit (and every free initial latch value) to 0,
/// keeping each change only if the trace still replays to a violation.
/// The result validates by construction.  Quadratic in trace size — meant
/// for debugging workflows, not hot paths.
Trace minimize_trace(const model::Netlist& net, Trace trace,
                     std::size_t bad_index = 0);

}  // namespace refbmc::bmc
