/// \file dominosim.cpp
/// 64-lane clocked power simulation of synthesized domino realizations.

#include <stdexcept>
#include <utility>

#include "sim/sim.hpp"
#include "util/bits.hpp"

namespace dominosyn {

VectorGenerator::VectorGenerator(const std::vector<double>& pi_probs,
                                 std::uint64_t seed)
    : bits_(pi_probs.begin(), pi_probs.end()), rng_(seed) {}

void VectorGenerator::next(std::vector<std::uint64_t>& words) {
  words.resize(bits_.size());
  // Draw from a local copy, which the compiler can keep in registers: a
  // store to `words` might alias the member's state, so drawing from rng_
  // would store and reload the state around every word.
  Rng rng = rng_;
  for (std::size_t i = 0; i < bits_.size(); ++i) words[i] = bits_[i].draw(rng);
  rng_ = rng;
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
  // up once.  Each energy sum below gets exactly the addends a per-node walk
  // would, in step order and within a step in node-id order, so every sum
  // keeps its bits.
  struct DominoGate {
    NodeId id;
    double cap, mult;
    double lane_add;         ///< 64 * add, exact (a power of two)
    std::uint64_t ones = 0;  ///< discharges, which are also its 1-lanes
  };
  struct InputInverter {
    NodeId id;
    NodeId source;
    double cap;
    std::uint64_t toggles = 0;
  };
  struct OutputInverter {
    NodeId id;
    NodeId driver;  ///< a domino gate, or an input inverter
    double cap;
  };
  std::vector<NodeId> sources;
  std::vector<DominoGate> domino_gates;
  std::vector<InputInverter> input_inverters;
  std::vector<OutputInverter> output_inverters;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    switch (roles[id]) {
      case DominoRole::kDominoGate: {
        const bool is_and = net.kind(id) == NodeKind::kAnd;
        domino_gates.push_back(
            {id, cap_of(id, model.gate_cap),
             is_and ? model.penalty.and_mult : model.penalty.or_mult,
             64.0 * (is_and ? model.penalty.and_add : model.penalty.or_add)});
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
        sources.push_back(id);
        break;
    }
  }
  const double lane_clock = 64.0 * model.clock_cap_per_gate;

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

  // Accounted 1-lanes per node; filled for sources during the steps, and
  // for every other node from the role counters afterwards.
  std::vector<std::uint64_t> one_counts(net.num_nodes(), 0);
  SimPowerResult result;
  // The four energy sums, made per-cycle at the end.  They accumulate in
  // the result, not in local doubles: GCC keeps a local that lives across
  // simulate() in a stack slot, so each add would wait on a store and a
  // reload, while it holds a sum in memory in a register through each
  // role loop.
  PowerBreakdown& energy = result.per_cycle;

  for (std::size_t step = 0; step < options.steps; ++step) {
    gen.next(pi_words);
    compiled.simulate(pi_words, latch_words, value);

    if (step >= options.warmup) {
      for (const NodeId id : sources) one_counts[id] += popcount64(value[id]);
      for (DominoGate& gate : domino_gates) {
        // One discharge per lane-cycle where the output evaluates to 1.
        const std::uint32_t discharges = popcount64(value[gate.id]);
        gate.ones += discharges;
        energy.domino_block += discharges * gate.cap * gate.mult + gate.lane_add;
        energy.clock_load += lane_clock;
      }
      if (step > 0) {
        // Value changes of the (static) source between consecutive cycles.
        for (InputInverter& inv : input_inverters) {
          const std::uint32_t toggles =
              popcount64(value[inv.source] ^ prev_value[inv.source]);
          inv.toggles += toggles;
          energy.input_inverters += toggles * inv.cap;
        }
      }
      for (const OutputInverter& inv : output_inverters) {
        // The domino driver rises and is then precharged: the inverter
        // sees `domino_driven_inverter_edges` edges per discharged cycle.
        const std::uint32_t fired = popcount64(value[inv.driver]);
        energy.output_inverters +=
            model.domino_driven_inverter_edges * fired * inv.cap;
      }
    }

    // Advance lanes: latches capture their next-state inputs.
    for (std::size_t i = 0; i < net.num_latches(); ++i)
      latch_words[i] = value[net.latches()[i].input];
    std::swap(value, prev_value);
  }

  const std::size_t accounted_steps = options.steps - options.warmup;
  const std::uint64_t lanes = 64 * static_cast<std::uint64_t>(accounted_steps);
  const double cycles = static_cast<double>(lanes);
  result.cycles = static_cast<std::size_t>(lanes);
  energy.domino_block /= cycles;
  energy.input_inverters /= cycles;
  energy.output_inverters /= cycles;
  energy.clock_load /= cycles;

  // Sources switch nothing; an inverter is 1 exactly on the lanes where its
  // fanin is 0, and an output inverter switches on its driver's 1-lanes.
  const auto per_cycle = [&](std::uint64_t count) {
    return static_cast<double>(count) / cycles;
  };
  result.activity.assign(net.num_nodes(), 0.0);
  result.one_rate.assign(net.num_nodes(), 0.0);
  for (const NodeId id : sources) result.one_rate[id] = per_cycle(one_counts[id]);
  for (const DominoGate& gate : domino_gates) {
    one_counts[gate.id] = gate.ones;
    result.activity[gate.id] = per_cycle(gate.ones);
    result.one_rate[gate.id] = per_cycle(gate.ones);
  }
  for (const InputInverter& inv : input_inverters) {
    one_counts[inv.id] = lanes - one_counts[inv.source];
    result.activity[inv.id] = per_cycle(inv.toggles);
    result.one_rate[inv.id] = per_cycle(one_counts[inv.id]);
  }
  for (const OutputInverter& inv : output_inverters) {
    result.activity[inv.id] = per_cycle(one_counts[inv.driver]);
    result.one_rate[inv.id] = per_cycle(lanes - one_counts[inv.driver]);
  }
  return result;
}

}  // namespace dominosyn
