/// \file sim.hpp
/// Gate-level power simulation — the reproduction's stand-in for the EPIC
/// PowerMill measurements of §5.
///
/// Two engines:
///  * simulate_domino_power — 64-lane bit-parallel clocked simulation of a
///    synthesized domino realization.  Each bit lane is an independent
///    sequential trajectory driven by statistically generated input vectors
///    (the paper's "statistically generated input vectors with the
///    appropriate signal probabilities").  Domino gates burn energy per
///    discharge (Property 2.1 makes zero-delay counting exact); boundary
///    static inverters burn per value change; optional per-gate clock load.
///    The netlist is compiled once per call (CompiledNetwork: runs of gates
///    of one kind and fanin count, level by level) and every step evaluates
///    into two swapped value buffers; each node's role, cap and penalty are
///    looked up once, before the step loop.  An accounted step counts lanes
///    (popcount64, util/bits.hpp) only where a sum needs them: each domino
///    gate's 1-lanes, which are its discharges as well, each source's
///    1-lanes, each input inverter's source toggles and each output
///    inverter's firing driver.  An inverter's 1-lane count is derived once,
///    at the end, from its fanin's.  The four energy sums are independent,
///    and each adds its operands in step order, then node-id order.
///  * EventSim / measure_static_glitching — single-pattern event-driven
///    simulation with per-gate delays for *static* CMOS realizations; counts
///    real transitions including glitches (the effect domino logic is immune
///    to, Property 2.2).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"
#include "power/power.hpp"
#include "util/rng.hpp"

namespace dominosyn {

/// Generates 64-bit words whose bits are independent Bernoulli(p) samples,
/// one stream per primary input.
class VectorGenerator {
 public:
  VectorGenerator(const std::vector<double>& pi_probs, std::uint64_t seed);

  /// Next word for every PI (words[i] belongs to PI i): exactly the words
  /// Rng::biased_bits(pi_probs[i]) draws for i = 0, 1, ... in turn.
  void next(std::vector<std::uint64_t>& words);

  [[nodiscard]] std::size_t num_inputs() const noexcept { return bits_.size(); }

 private:
  std::vector<BiasedBits> bits_;
  Rng rng_;
};

struct SimPowerOptions {
  std::size_t steps = 2048;     ///< simulation steps (64 lanes each = 64*steps cycles)
  std::size_t warmup = 16;      ///< steps discarded before accounting
  std::uint64_t seed = 42;
  PowerModelConfig model;
  /// Optional per-node capacitance override (e.g. from technology mapping);
  /// empty = model.gate_cap / model.inverter_cap.
  std::vector<double> node_caps;
};

struct SimPowerResult {
  PowerBreakdown per_cycle;          ///< average energy per cycle (normalized)
  std::vector<double> activity;      ///< per node: events per cycle (discharge
                                     ///< rate for domino, transitions for static)
  std::vector<double> one_rate;      ///< per node: P(output == 1) estimate
  std::size_t cycles = 0;            ///< accounted cycles (64 * (steps-warmup))
};

/// Measures the power of a synthesized domino network (must satisfy
/// classify_domino_roles).  Latches start at their init values.
[[nodiscard]] SimPowerResult simulate_domino_power(const Network& net,
                                                   std::span<const double> pi_probs,
                                                   const SimPowerOptions& options = {});

// ---- event-driven static simulation -----------------------------------------

/// Event-driven 2-valued simulator with integer gate delays.  Used to expose
/// glitching in static CMOS realizations (combinational networks only).
class EventSim {
 public:
  /// \param delays per-node propagation delay; empty = unit delay per gate.
  EventSim(const Network& net, std::vector<std::uint32_t> delays = {});

  /// Applies an input vector (one bool per PI) and propagates to quiescence.
  /// Returns the number of output-node transitions caused by this vector
  /// (settling from the previous state).
  std::size_t apply(std::span<const bool> pi_values);

  /// Per-node transition counts accumulated over all apply() calls.
  [[nodiscard]] const std::vector<std::uint64_t>& transition_counts() const noexcept {
    return counts_;
  }
  /// Current steady-state value of a node.
  [[nodiscard]] bool value(NodeId id) const { return value_.at(id) != 0; }

  void reset_counts() { counts_.assign(counts_.size(), 0); }

 private:
  bool eval_node(NodeId id) const;

  const Network* net_;
  std::vector<std::uint32_t> delays_;
  std::vector<std::uint8_t> value_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint32_t> rank_;  ///< topological rank, for in-time ordering
  bool initialized_ = false;
};

struct GlitchReport {
  double real_transitions_per_cycle = 0.0;  ///< with delays (includes glitches)
  double zero_delay_transitions_per_cycle = 0.0;
  /// Ratio real / zero-delay (1.0 = glitch-free).
  [[nodiscard]] double glitch_factor() const noexcept {
    return zero_delay_transitions_per_cycle > 0.0
               ? real_transitions_per_cycle / zero_delay_transitions_per_cycle
               : 1.0;
  }
};

/// Drives `cycles` random vectors through a *static* interpretation of the
/// combinational network and compares delay-aware transition counts with the
/// zero-delay count (gates only, sources excluded).
[[nodiscard]] GlitchReport measure_static_glitching(const Network& net,
                                                    std::span<const double> pi_probs,
                                                    std::size_t cycles,
                                                    std::uint64_t seed = 7,
                                                    std::vector<std::uint32_t> delays = {});

}  // namespace dominosyn
