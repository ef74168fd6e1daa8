/// Tests for the structural load model (PowerModelConfig::load_aware): the
/// per-instance C_i accounting must be internally consistent with the demand
/// walk and track the mapped netlist's real loads.

#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"
#include "flow/flow.hpp"
#include "mapping/mapper.hpp"
#include "phase/assignment.hpp"
#include "phase/search.hpp"
#include "util/rng.hpp"

namespace dominosyn {
namespace {

AssignmentEvaluator make_evaluator(const Network& net, bool load_aware,
                                   double pi_prob = 0.5) {
  PowerModelConfig config;
  config.load_aware = load_aware;
  const std::vector<double> pi_probs(net.num_pis(), pi_prob);
  return AssignmentEvaluator(net, signal_probabilities(net, pi_probs), config);
}

TEST(LoadModel, SingleGateLoadIsWirePlusPoLoad) {
  // One AND driving one PO: C = wire + po_cap; S = 0.25 at p = 0.5.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("f", net.add_and(a, b));
  const auto evaluator = make_evaluator(net, /*load_aware=*/true);
  const auto cost = evaluator.evaluate(all_positive(net));
  PowerModelConfig config;  // defaults: wire 0.2, po 1.0
  EXPECT_NEAR(cost.power.domino_block, 0.25 * (config.wire_cap + config.po_cap),
              1e-12);
}

TEST(LoadModel, FanoutPinsAccumulate) {
  // shared = a&b feeds two gates: C(shared) = wire + 2 pins.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId shared = net.add_and(a, b);
  net.add_po("f", net.add_and(shared, c));
  net.add_po("g", net.add_or(shared, c));
  const auto evaluator = make_evaluator(net, true);
  const auto cost = evaluator.evaluate(all_positive(net));
  // shared: S=.25, C=.2+2; f: S=.125, C=1.2; g: S=.625, C=1.2.
  EXPECT_NEAR(cost.power.domino_block,
              0.25 * 2.2 + 0.125 * 1.2 + 0.625 * 1.2, 1e-12);
}

TEST(LoadModel, DualInstancesCarrySeparateLoads) {
  // A node demanded in both polarities has two instances whose loads are the
  // consumer counts of each polarity, not the structural fanout.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId shared = net.add_and(a, b);
  net.add_po("pos", net.add_and(shared, c));   // uses shared positively
  net.add_po("neg", net.add_not(shared));      // positive phase -> needs !shared
  const auto evaluator = make_evaluator(net, true);
  const auto dem = polarity_demand(net, all_positive(net));
  EXPECT_TRUE(dem.needs_pos(shared));
  EXPECT_TRUE(dem.needs_neg(shared));
  const auto cost = evaluator.evaluate(all_positive(net));
  // pos instance of `shared`: 1 pin (the AND), S = .25, C = .2 + 1.
  // neg instance (OR of !a,!b): drives PO "neg" directly, S = .75, C = .2 + 1.
  // top AND: S = .125, C = 1.2; input inverters a,b: S=.5, C=.2+1 each.
  EXPECT_NEAR(cost.power.domino_block, 0.25 * 1.2 + 0.75 * 1.2 + 0.125 * 1.2,
              1e-12);
  EXPECT_NEAR(cost.power.input_inverters, 2 * 0.5 * 1.2, 1e-12);
}

TEST(LoadModel, SharedOutputInverterCountsAllPoLoads) {
  // Two negative POs resolving to the same complement share one inverter
  // that drives both PO loads.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and(a, b);
  net.add_po("f1", g);
  net.add_po("f2", g);
  const auto evaluator = make_evaluator(net, true);
  const auto cost = evaluator.evaluate({Phase::kNegative, Phase::kNegative});
  EXPECT_EQ(cost.output_inverters, 1u);
  // Inverter input prob = p(!g) = .75; C = wire + 2 PO loads = 2.2; 2 edges.
  EXPECT_NEAR(cost.power.output_inverters, 2.0 * 0.75 * 2.2, 1e-12);
}

TEST(LoadModel, TracksMappedLoadsOnRandomNetworks) {
  // The estimator's total under the load model should correlate tightly with
  // the simulator's load-weighted measurement on the mapped netlist (the
  // property ablation_loadmodel relies on).  Mapping collapses trees, so we
  // allow a generous band but require consistent *ranking*.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BenchSpec spec;
    spec.name = "lm";
    spec.num_pis = 10;
    spec.num_pos = 6;
    spec.gate_target = 80;
    spec.seed = seed;
    const Network net = generate_benchmark(spec);
    const auto evaluator = make_evaluator(net, true);

    Rng rng(seed);
    std::vector<double> est, sim;
    for (int k = 0; k < 4; ++k) {
      PhaseAssignment phases(net.num_pos());
      for (auto& p : phases)
        p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
      est.push_back(evaluator.evaluate(phases).power.total());

      const auto domino = synthesize_domino(net, phases);
      static const CellLibrary lib = CellLibrary::generic();
      const auto mapped = map_network(domino.net, lib);
      SimPowerOptions options;
      options.steps = 800;
      options.node_caps = mapped.netlist.node_loads();
      const std::vector<double> pi_probs(net.num_pis(), 0.5);
      sim.push_back(simulate_domino_power(mapped.netlist.net, pi_probs, options)
                        .per_cycle.total());
    }
    int agree = 0, pairs = 0;
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j) {
        ++pairs;
        if ((est[i] < est[j]) == (sim[i] < sim[j])) ++agree;
      }
    EXPECT_GE(agree, pairs - 1) << "seed " << seed;  // at most one inversion
  }
}

TEST(LoadModel, LoadAwareSearchNeverWorseOnMeasuredObjective) {
  // Searching with the load-aware objective must give an estimate at least
  // as good as evaluating the Ci=1 winner under the load-aware model.
  BenchSpec spec;
  spec.name = "lmsearch";
  spec.num_pis = 12;
  spec.num_pos = 8;
  spec.gate_target = 120;
  spec.seed = 5;
  const Network net = generate_benchmark(spec);
  const auto aware = make_evaluator(net, true);
  const auto unit = make_evaluator(net, false);
  const ConeOverlap overlap(net);

  const auto pick_unit = min_power_assignment(unit, overlap);
  const auto pick_aware = min_power_assignment(aware, overlap);
  EXPECT_LE(pick_aware.final_power,
            aware.evaluate(pick_unit.assignment).power.total() + 1e-9);
}

TEST(LoadModel, DisabledModelIgnoresFanout) {
  // With load_aware = false, duplicating consumers must not change C_i.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and(a, b);
  net.add_po("f", net.add_or(g, a));
  net.add_po("g2", net.add_or(g, b));
  const auto evaluator = make_evaluator(net, false);
  const auto cost = evaluator.evaluate(all_positive(net));
  // Exact probabilities see the absorption a&b | a = a: S(g)=.25, S(f)=.5,
  // S(g2)=.5; all C = 1 because the load model is off.
  EXPECT_NEAR(cost.power.domino_block, 0.25 + 0.5 + 0.5, 1e-12);
}

}  // namespace
}  // namespace dominosyn
