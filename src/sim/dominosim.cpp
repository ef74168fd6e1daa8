/// \file dominosim.cpp
/// 64-lane clocked power simulation of synthesized domino realizations.

#include <stdexcept>
#include <utility>

#include "sim/sim.hpp"
#include "util/bits.hpp"

namespace dominosyn {

VectorGenerator::VectorGenerator(std::vector<double> pi_probs, std::uint64_t seed)
    : probs_(std::move(pi_probs)), rng_(seed) {}

void VectorGenerator::next(std::vector<std::uint64_t>& words) {
  words.resize(probs_.size());
  for (std::size_t i = 0; i < probs_.size(); ++i)
    words[i] = rng_.biased_bits(probs_[i]);
}

SimPowerResult simulate_domino_power(const Network& net,
                                     std::span<const double> pi_probs,
                                     const SimPowerOptions& options) {
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("simulate_domino_power: PI prob count mismatch");
  if (!options.node_caps.empty() && options.node_caps.size() != net.num_nodes())
    throw std::runtime_error("simulate_domino_power: node cap count mismatch");
  if (options.steps <= options.warmup)
    throw std::runtime_error("simulate_domino_power: steps must exceed warmup");

  const auto roles = classify_domino_roles(net);
  const PowerModelConfig& model = options.model;

  const auto cap_of = [&](NodeId id, double fallback) {
    return options.node_caps.empty() ? fallback : options.node_caps[id];
  };

  // Each role's nodes in node-id order, with their caps and penalties looked
  // up once.  The step loop below adds exactly the operands a per-node walk
  // would, in node-id order and then step order, so every energy sum keeps
  // its bits.
  struct DominoGate {
    NodeId id;
    double cap, mult, add;
  };
  struct Inverter {
    NodeId id;
    NodeId fanin;  ///< the source (input inverter) or domino driver (output)
    double cap;
  };
  std::vector<DominoGate> domino_gates;
  std::vector<Inverter> input_inverters;
  std::vector<Inverter> output_inverters;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    switch (roles[id]) {
      case DominoRole::kDominoGate: {
        const bool is_and = net.kind(id) == NodeKind::kAnd;
        domino_gates.push_back(
            {id, cap_of(id, model.gate_cap),
             is_and ? model.penalty.and_mult : model.penalty.or_mult,
             is_and ? model.penalty.and_add : model.penalty.or_add});
        break;
      }
      case DominoRole::kInputInverter:
        input_inverters.push_back(
            {id, net.fanins(id)[0], cap_of(id, model.inverter_cap)});
        break;
      case DominoRole::kOutputInverter:
        output_inverters.push_back(
            {id, net.fanins(id)[0], cap_of(id, model.inverter_cap)});
        break;
      case DominoRole::kSource:
        break;
    }
  }

  const CompiledNetwork compiled(net);
  VectorGenerator gen({pi_probs.begin(), pi_probs.end()}, options.seed);
  std::vector<std::uint64_t> pi_words;
  // Latch lane states: every bit lane is an independent trajectory.
  std::vector<std::uint64_t> latch_words(net.num_latches(), 0);
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    if (net.latches()[i].init == LatchInit::kOne) latch_words[i] = ~0ULL;

  // This step's node values, and the previous step's for static
  // input-inverter edge counting; the two buffers swap every step.
  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> prev_value;
  bool have_prev = false;

  std::vector<std::uint64_t> event_counts(net.num_nodes(), 0);
  std::vector<std::uint64_t> one_counts(net.num_nodes(), 0);
  // This step's lane count per node, shared by the role loops below.
  std::vector<std::uint32_t> ones(net.num_nodes(), 0);
  SimPowerResult result;
  result.per_cycle = PowerBreakdown{};

  double domino_energy = 0.0;
  double input_inv_energy = 0.0;
  double output_inv_energy = 0.0;
  double clock_energy = 0.0;

  for (std::size_t step = 0; step < options.steps; ++step) {
    gen.next(pi_words);
    compiled.simulate(pi_words, latch_words, value);
    const bool accounted = step >= options.warmup;

    if (accounted) {
      for (NodeId id = 0; id < net.num_nodes(); ++id) {
        ones[id] = popcount64(value[id]);
        one_counts[id] += ones[id];
      }
      for (const DominoGate& gate : domino_gates) {
        // One discharge per lane-cycle where the output evaluates to 1.
        const std::uint32_t discharges = ones[gate.id];
        event_counts[gate.id] += discharges;
        domino_energy += discharges * gate.cap * gate.mult + 64.0 * gate.add;
        clock_energy += 64.0 * model.clock_cap_per_gate;
      }
      if (have_prev) {
        // Value changes of the (static) source between consecutive cycles.
        for (const Inverter& inv : input_inverters) {
          const std::uint32_t toggles =
              popcount64(value[inv.fanin] ^ prev_value[inv.fanin]);
          event_counts[inv.id] += toggles;
          input_inv_energy += toggles * inv.cap;
        }
      }
      for (const Inverter& inv : output_inverters) {
        // The domino driver rises and is then precharged: the inverter
        // sees `domino_driven_inverter_edges` edges per discharged cycle.
        const std::uint32_t fired = ones[inv.fanin];
        event_counts[inv.id] += fired;
        output_inv_energy +=
            model.domino_driven_inverter_edges * fired * inv.cap;
      }
    }

    // Advance lanes: latches capture their next-state inputs.
    for (std::size_t i = 0; i < net.num_latches(); ++i)
      latch_words[i] = value[net.latches()[i].input];
    std::swap(value, prev_value);
    have_prev = true;
  }

  const std::size_t accounted_steps = options.steps - options.warmup;
  const double cycles = 64.0 * static_cast<double>(accounted_steps);
  result.cycles = static_cast<std::size_t>(cycles);
  result.per_cycle.domino_block = domino_energy / cycles;
  result.per_cycle.input_inverters = input_inv_energy / cycles;
  result.per_cycle.output_inverters = output_inv_energy / cycles;
  result.per_cycle.clock_load = clock_energy / cycles;

  result.activity.assign(net.num_nodes(), 0.0);
  result.one_rate.assign(net.num_nodes(), 0.0);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    result.activity[id] = static_cast<double>(event_counts[id]) / cycles;
    result.one_rate[id] = static_cast<double>(one_counts[id]) / cycles;
  }
  return result;
}

}  // namespace dominosyn
