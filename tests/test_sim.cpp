/// Tests for the power simulator (PowerMill substitute): statistical vector
/// generation, domino clocked semantics (Properties 2.1 / 2.2), event-driven
/// static glitching, and estimator-vs-simulator agreement.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"
#include "mapping/library.hpp"
#include "mapping/mapper.hpp"
#include "network/synth.hpp"
#include "phase/assignment.hpp"
#include "sim/sim.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dominosyn {
namespace {

TEST(VectorGenerator, MatchesTargetProbabilities) {
  VectorGenerator gen({0.1, 0.5, 0.9}, 77);
  std::vector<std::uint64_t> words;
  std::array<std::uint64_t, 3> ones{};
  constexpr int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    gen.next(words);
    for (int i = 0; i < 3; ++i)
      ones[i] += static_cast<std::uint64_t>(__builtin_popcountll(words[i]));
  }
  const double n = 64.0 * kSteps;
  EXPECT_NEAR(ones[0] / n, 0.1, 0.01);
  EXPECT_NEAR(ones[1] / n, 0.5, 0.01);
  EXPECT_NEAR(ones[2] / n, 0.9, 0.01);
}

TEST(VectorGenerator, Deterministic) {
  VectorGenerator a({0.5}, 5), b({0.5}, 5);
  std::vector<std::uint64_t> wa, wb;
  for (int i = 0; i < 10; ++i) {
    a.next(wa);
    b.next(wb);
    EXPECT_EQ(wa, wb);
  }
}

TEST(VectorGenerator, StreamsMatchBiasedBits) {
  // The generator decodes each probability once; its words must still be
  // exactly Rng::biased_bits's, drawn PI after PI from one stream.
  const std::vector<double> probs = {-0.5,      0.0, 1e-6,     0.3, 1.0 / 3.0,
                                     0.5, 0.999999, 1.0, 1.5};
  VectorGenerator gen(probs, 2024);
  Rng rng(2024);
  std::vector<std::uint64_t> words;
  for (int w = 0; w < 1000; ++w) {
    gen.next(words);
    ASSERT_EQ(words.size(), probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
      ASSERT_EQ(words[i], rng.biased_bits(probs[i]))
          << "p=" << probs[i] << ", word " << w;
  }
}

TEST(DominoSim, Property21SwitchingEqualsSignalProbability) {
  // For every domino gate, the measured discharge rate must equal the
  // measured one-rate (exactly — it's the same event), and both must match
  // the exact BDD signal probability.
  const Network net = make_figure5_circuit();
  const std::vector<double> pi_probs(4, 0.9);
  SimPowerOptions options;
  options.steps = 4000;
  options.warmup = 10;
  const auto sim = simulate_domino_power(net, pi_probs, options);
  const auto probs = signal_probabilities(net, pi_probs);

  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (!is_gate_kind(net.kind(id))) continue;
    EXPECT_DOUBLE_EQ(sim.activity[id], sim.one_rate[id]) << id;
    EXPECT_NEAR(sim.activity[id], probs[id], 0.01) << id;
  }
}

TEST(DominoSim, Property22NoGateExceedsOneDischargePerCycle) {
  BenchSpec spec;
  spec.name = "p22";
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.gate_target = 60;
  spec.seed = 3;
  const Network net = generate_benchmark(spec);
  const auto domino = synthesize_domino(net, all_positive(net));
  SimPowerOptions options;
  options.steps = 200;
  const auto sim = simulate_domino_power(domino.net, std::vector<double>(8, 0.5),
                                         options);
  for (const double rate : sim.activity) EXPECT_LE(rate, 1.0 + 1e-12);
}

TEST(DominoSim, BlockEnergyMatchesFigure5) {
  const Network net = make_figure5_circuit();
  const std::vector<double> pi_probs(4, 0.9);
  SimPowerOptions options;
  options.steps = 6000;
  options.warmup = 16;
  const auto positive = simulate_domino_power(net, pi_probs, options);
  EXPECT_NEAR(positive.per_cycle.domino_block, 3.6, 0.02);

  const auto dual =
      synthesize_domino(net, {Phase::kNegative, Phase::kNegative});
  const auto negative = simulate_domino_power(dual.net, pi_probs, options);
  EXPECT_NEAR(negative.per_cycle.domino_block, 0.40, 0.01);
  EXPECT_NEAR(negative.per_cycle.input_inverters, 0.72, 0.02);
  EXPECT_NEAR(negative.per_cycle.output_inverters, 0.40, 0.01);
}

TEST(DominoSim, SequentialLanesEvolveIndependently) {
  // Shift register s1 <- a, s0 <- s1, PO = s0: one-rate of s0 equals p(a).
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s1 = net.add_latch("s1");
  const NodeId s0 = net.add_latch("s0");
  net.set_latch_input(s1, a);
  net.set_latch_input(s0, s1);
  net.add_po("f", net.add_and(s0, s1));

  SimPowerOptions options;
  options.steps = 3000;
  const auto sim = simulate_domino_power(net, std::vector<double>(1, 0.3), options);
  EXPECT_NEAR(sim.one_rate[s0], 0.3, 0.01);
  EXPECT_NEAR(sim.one_rate[s1], 0.3, 0.01);
  // s0 and s1 are consecutive samples of an iid stream: AND rate = 0.09.
  EXPECT_NEAR(sim.one_rate[net.pos()[0].driver], 0.09, 0.01);
}

TEST(DominoSim, LatchInitRespected) {
  Network net;
  const NodeId s = net.add_latch("s", LatchInit::kOne);
  net.set_latch_input(s, s);  // holds forever
  net.add_po("f", s);
  SimPowerOptions options;
  options.steps = 64;
  options.warmup = 1;
  const auto sim = simulate_domino_power(net, {}, options);
  EXPECT_DOUBLE_EQ(sim.one_rate[s], 1.0);
}

TEST(DominoSim, NodeCapsOverrideModelCaps) {
  const Network net = make_figure5_circuit();
  SimPowerOptions base;
  base.steps = 500;
  const auto plain = simulate_domino_power(net, std::vector<double>(4, 0.9), base);

  SimPowerOptions scaled = base;
  scaled.node_caps.assign(net.num_nodes(), 3.0);
  const auto big = simulate_domino_power(net, std::vector<double>(4, 0.9), scaled);
  EXPECT_NEAR(big.per_cycle.domino_block, 3.0 * plain.per_cycle.domino_block, 1e-9);
}

TEST(DominoSim, PinnedBitsOnMappedSequentialCircuit) {
  // Every energy sum must keep its exact operands and order (node-id order,
  // then step order), so Table 1's sim column never moves when the
  // simulator's internals do.  A small sequential circuit with latches,
  // input and output inverters, mapped and loaded the way FlowSession's
  // measure stage loads it, pins each result to the bit.
  BenchSpec spec;
  spec.name = "simpin";
  spec.num_pis = 10;
  spec.num_pos = 6;
  spec.num_latches = 4;
  spec.gate_target = 90;
  spec.seed = 5;
  Network net = generate_benchmark(spec);
  standard_synthesis(net);
  PhaseAssignment phases(net.num_pos(), Phase::kPositive);
  for (std::size_t i = 0; i < phases.size(); i += 2) phases[i] = Phase::kNegative;
  const DominoSynthesisResult domino = synthesize_domino(net, phases);
  const CellLibrary library = CellLibrary::generic();  // cells point into it
  const MapResult mapped = map_network(domino.net, library, MapOptions{});
  const Network& cells = mapped.netlist.net;

  std::size_t role_counts[4] = {0, 0, 0, 0};
  for (const DominoRole role : classify_domino_roles(cells))
    ++role_counts[static_cast<std::size_t>(role)];
  ASSERT_EQ(cells.num_latches(), 4u);
  ASSERT_GT(role_counts[static_cast<std::size_t>(DominoRole::kInputInverter)], 0u);
  ASSERT_GT(role_counts[static_cast<std::size_t>(DominoRole::kOutputInverter)], 0u);

  SimPowerOptions options;
  options.steps = 300;
  options.warmup = 7;
  options.seed = 11;
  options.node_caps = mapped.netlist.node_loads(0.2);
  options.model.clock_cap_per_gate = 0.35;
  options.model.penalty.and_mult = 1.25;
  options.model.penalty.or_add = 0.05;
  const SimPowerResult sim = simulate_domino_power(
      cells, std::vector<double>(cells.num_pis(), 0.6), options);

  EXPECT_EQ(sim.cycles, 18752u);
  EXPECT_EQ(sim.per_cycle.domino_block, 0x1.1c7ac091630eep+6);
  EXPECT_EQ(sim.per_cycle.input_inverters, 0x1.b37636de9fb64p+4);
  EXPECT_EQ(sim.per_cycle.output_inverters, 0x1.5eb07dd0d1b16p-2);
  EXPECT_EQ(sim.per_cycle.clock_load, 0x1.7ccccccccd534p+4);
  double activity = 0.0;
  double one_rate = 0.0;
  for (const double a : sim.activity) activity += a;
  for (const double o : sim.one_rate) one_rate += o;
  EXPECT_EQ(activity, 0x1.1813a8a0c3b6ap+5);
  EXPECT_EQ(one_rate, 0x1.7dfe7892c8f4cp+5);
}

/// The straightforward accounting simulate_domino_power once ran, kept as
/// the oracle it must equal bit for bit: every node's lanes are counted
/// every step, each domino gate's count goes to both its event and its one
/// count, and each role's energy is summed in node-id order within a step.
SimPowerResult reference_domino_power(const Network& net,
                                      std::span<const double> pi_probs,
                                      const SimPowerOptions& options) {
  const auto roles = classify_domino_roles(net);
  const PowerModelConfig& model = options.model;
  const auto cap_of = [&](NodeId id, double fallback) {
    return options.node_caps.empty() ? fallback : options.node_caps[id];
  };

  Rng rng(options.seed);
  std::vector<std::uint64_t> pi_words(net.num_pis());
  std::vector<std::uint64_t> latch_words(net.num_latches(), 0);
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    if (net.latches()[i].init == LatchInit::kOne) latch_words[i] = ~0ULL;
  std::vector<std::uint64_t> prev_value;

  std::vector<std::uint64_t> event_counts(net.num_nodes(), 0);
  std::vector<std::uint64_t> one_counts(net.num_nodes(), 0);
  std::vector<std::uint32_t> ones(net.num_nodes(), 0);
  double domino_energy = 0.0;
  double input_inv_energy = 0.0;
  double output_inv_energy = 0.0;
  double clock_energy = 0.0;

  for (std::size_t step = 0; step < options.steps; ++step) {
    for (std::size_t i = 0; i < net.num_pis(); ++i)
      pi_words[i] = rng.biased_bits(pi_probs[i]);
    const std::vector<std::uint64_t> value = net.simulate(pi_words, latch_words);
    if (step >= options.warmup) {
      for (NodeId id = 0; id < net.num_nodes(); ++id) {
        ones[id] = popcount64(value[id]);
        one_counts[id] += ones[id];
      }
      for (NodeId id = 0; id < net.num_nodes(); ++id) {
        if (roles[id] != DominoRole::kDominoGate) continue;
        const bool is_and = net.kind(id) == NodeKind::kAnd;
        const double mult = is_and ? model.penalty.and_mult : model.penalty.or_mult;
        const double add = is_and ? model.penalty.and_add : model.penalty.or_add;
        event_counts[id] += ones[id];
        domino_energy += ones[id] * cap_of(id, model.gate_cap) * mult + 64.0 * add;
        clock_energy += 64.0 * model.clock_cap_per_gate;
      }
      if (!prev_value.empty()) {
        for (NodeId id = 0; id < net.num_nodes(); ++id) {
          if (roles[id] != DominoRole::kInputInverter) continue;
          const NodeId source = net.fanins(id)[0];
          const std::uint32_t toggles =
              popcount64(value[source] ^ prev_value[source]);
          event_counts[id] += toggles;
          input_inv_energy += toggles * cap_of(id, model.inverter_cap);
        }
      }
      for (NodeId id = 0; id < net.num_nodes(); ++id) {
        if (roles[id] != DominoRole::kOutputInverter) continue;
        const std::uint32_t fired = ones[net.fanins(id)[0]];
        event_counts[id] += fired;
        output_inv_energy += model.domino_driven_inverter_edges * fired *
                             cap_of(id, model.inverter_cap);
      }
    }
    for (std::size_t i = 0; i < net.num_latches(); ++i)
      latch_words[i] = value[net.latches()[i].input];
    prev_value = value;
  }

  const double cycles = 64.0 * static_cast<double>(options.steps - options.warmup);
  SimPowerResult result;
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

TEST(DominoSim, MatchesReferenceAccountingBitForBit) {
  const CellLibrary library = CellLibrary::generic();  // cells point into it
  for (const std::size_t num_latches : {std::size_t{0}, std::size_t{4}}) {
    BenchSpec spec;
    spec.name = "oracle";
    spec.num_pis = 10;
    spec.num_pos = 7;
    spec.num_latches = num_latches;
    spec.gate_target = 90;
    spec.seed = 5;
    Network net = generate_benchmark(spec);
    standard_synthesis(net);
    PhaseAssignment phases(net.num_pos(), Phase::kPositive);
    for (std::size_t i = 1; i < phases.size(); i += 2) phases[i] = Phase::kNegative;
    const MapResult mapped =
        map_network(synthesize_domino(net, phases).net, library, MapOptions{});
    const Network& cells = mapped.netlist.net;
    std::size_t role_counts[4] = {0, 0, 0, 0};
    for (const DominoRole role : classify_domino_roles(cells))
      ++role_counts[static_cast<std::size_t>(role)];
    ASSERT_GT(role_counts[static_cast<std::size_t>(DominoRole::kInputInverter)], 0u);
    ASSERT_GT(role_counts[static_cast<std::size_t>(DominoRole::kOutputInverter)], 0u);
    if (num_latches > 0) {
      bool starts_high = false;
      for (const LatchInfo& latch : cells.latches())
        starts_high |= latch.init == LatchInit::kOne;
      ASSERT_TRUE(starts_high);
    }

    for (const std::size_t warmup : {0, 7, 16}) {
      for (const bool mapped_loads : {false, true}) {
        for (const bool custom_model : {false, true}) {
          for (const double pi_prob : {0.3, 0.5, 0.6}) {
            SCOPED_TRACE(::testing::Message()
                         << num_latches << " latches, warmup " << warmup
                         << ", mapped loads " << mapped_loads << ", custom model "
                         << custom_model << ", pi_prob " << pi_prob);
            SimPowerOptions options;
            options.steps = 40;
            options.warmup = warmup;
            options.seed = 11 + warmup;
            if (mapped_loads) options.node_caps = mapped.netlist.node_loads(0.2);
            if (custom_model) {
              options.model.penalty.and_mult = 1.25;
              options.model.penalty.or_add = 0.05;
              options.model.clock_cap_per_gate = 0.35;
            }
            const std::vector<double> probs(cells.num_pis(), pi_prob);
            const SimPowerResult actual = simulate_domino_power(cells, probs, options);
            const SimPowerResult expected = reference_domino_power(cells, probs, options);
            EXPECT_EQ(actual.cycles, expected.cycles);
            EXPECT_EQ(std::memcmp(&actual.per_cycle, &expected.per_cycle,
                                  sizeof(PowerBreakdown)),
                      0);
            ASSERT_EQ(actual.activity.size(), expected.activity.size());
            ASSERT_EQ(actual.one_rate.size(), expected.one_rate.size());
            EXPECT_EQ(std::memcmp(actual.activity.data(), expected.activity.data(),
                                  actual.activity.size() * sizeof(double)),
                      0);
            EXPECT_EQ(std::memcmp(actual.one_rate.data(), expected.one_rate.data(),
                                  actual.one_rate.size() * sizeof(double)),
                      0);
          }
        }
      }
    }
  }
}

TEST(DominoSim, EstimatorAgreesOnRandomBlocks) {
  // End-to-end: analytic §4.2 estimate vs measured power on synthesized
  // domino realizations, multiple seeds and phases.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BenchSpec spec;
    spec.name = "agree";
    spec.num_pis = 9;
    spec.num_pos = 5;
    spec.gate_target = 55;
    spec.seed = seed;
    const Network net = generate_benchmark(spec);
    const double pi_p = 0.35 + 0.1 * seed;
    const std::vector<double> pi_probs(net.num_pis(), pi_p);
    const AssignmentEvaluator evaluator(net, signal_probabilities(net, pi_probs));

    Rng rng(seed);
    PhaseAssignment phases(net.num_pos());
    for (auto& p : phases)
      p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;

    const auto est = evaluator.evaluate(phases);
    const auto domino = synthesize_domino(net, phases);
    SimPowerOptions options;
    options.steps = 2500;
    const auto sim = simulate_domino_power(domino.net, pi_probs, options);
    EXPECT_NEAR(sim.per_cycle.total(), est.power.total(),
                0.05 * est.power.total() + 0.05)
        << "seed " << seed;
  }
}

// ---- event-driven static simulation ------------------------------------------

TEST(EventSim, ZeroDelaySwitchingMatchesTheory) {
  // A single static AND at p = 0.5: value changes per cycle = 2*p*(1-p)
  // with p = P(and) = 0.25 -> 0.375.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and(a, b);
  net.add_po("f", g);

  EventSim sim(net, std::vector<std::uint32_t>(net.num_nodes(), 0));
  Rng rng(13);
  bool vec[2];
  constexpr int kCycles = 40000;
  for (int cycle = 0; cycle <= kCycles; ++cycle) {
    vec[0] = rng.bernoulli(0.5);
    vec[1] = rng.bernoulli(0.5);
    sim.apply({vec, 2});
  }
  const double rate =
      static_cast<double>(sim.transition_counts()[g]) / kCycles;
  EXPECT_NEAR(rate, 2 * 0.25 * 0.75, 0.01);
}

TEST(EventSim, GlitchAppearsUnderSkewedDelays) {
  // f = a & !a' where a' is a delayed copy through a long inverter chain:
  // static hazard — with delays the AND pulses, at zero delay it never moves.
  Network net;
  const NodeId a = net.add_pi("a");
  NodeId chain = net.add_not(a);
  chain = net.add_not(chain);
  chain = net.add_not(chain);  // odd chain: logical !a
  const NodeId g = net.add_and(a, chain);  // logically a & !a = 0
  net.add_po("f", g);

  EventSim delayed(net);  // unit delays
  EventSim zero(net, std::vector<std::uint32_t>(net.num_nodes(), 0));
  Rng rng(3);
  bool vec[1];
  constexpr int kCycles = 5000;
  for (int cycle = 0; cycle <= kCycles; ++cycle) {
    vec[0] = rng.bernoulli(0.5);
    delayed.apply({vec, 1});
    zero.apply({vec, 1});
  }
  // Under zero delay the hazard never fires: f is the constant 0.
  EXPECT_EQ(zero.transition_counts()[g], 0u);
  // With the skewed path every a-rise produces a glitch pulse (2 edges).
  EXPECT_GT(delayed.transition_counts()[g], 1000u);

  // The whole-network glitch factor also exceeds 1: the NOT chain switches
  // in both simulations, but the AND only with real delays.
  const auto report = measure_static_glitching(net, std::vector<double>(1, 0.5),
                                               kCycles, 3);
  EXPECT_GT(report.glitch_factor(), 1.0);
}

TEST(EventSim, GlitchFactorAtLeastOneOnRandomLogic) {
  BenchSpec spec;
  spec.name = "glitch";
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.gate_target = 60;
  spec.seed = 6;
  const Network net = generate_benchmark(spec);
  const auto report = measure_static_glitching(net, std::vector<double>(8, 0.5),
                                               2000, 4);
  EXPECT_GE(report.glitch_factor(), 0.999);
  EXPECT_GT(report.zero_delay_transitions_per_cycle, 0.0);
}

TEST(EventSim, RejectsSequentialNetworks) {
  Network net;
  const NodeId s = net.add_latch("s");
  net.set_latch_input(s, s);
  net.add_po("f", s);
  EXPECT_THROW(EventSim sim(net), std::runtime_error);
}

TEST(EventSim, TransitionCountsResettable) {
  Network net;
  const NodeId a = net.add_pi("a");
  net.add_po("f", net.add_not(a));
  EventSim sim(net);
  bool v0[] = {false}, v1[] = {true};
  sim.apply({v0, 1});
  sim.apply({v1, 1});
  EXPECT_GT(sim.transition_counts()[net.pos()[0].driver], 0u);
  sim.reset_counts();
  EXPECT_EQ(sim.transition_counts()[net.pos()[0].driver], 0u);
  EXPECT_FALSE(sim.value(net.pos()[0].driver));
}

}  // namespace
}  // namespace dominosyn
