/// Tests for sequential-to-combinational partitioning and latch-probability
/// estimation (paper §4.2.1, Fig. 7).

#include <gtest/gtest.h>

#include <cmath>

#include "benchgen/benchgen.hpp"
#include "network/synth.hpp"
#include "phase/assignment.hpp"
#include "sgraph/partition.hpp"
#include "sim/sim.hpp"

namespace dominosyn {
namespace {

TEST(Partition, CombinationalReducesToPlainProbabilities) {
  const Network net = make_figure5_circuit();
  const std::vector<double> pi_probs(net.num_pis(), 0.9);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_TRUE(result.cut_latches.empty());
  EXPECT_TRUE(result.used_exact_bdd);
  EXPECT_NEAR(result.node_probs[net.pos()[0].driver], 0.9981, 1e-12);
  EXPECT_NEAR(result.node_probs[net.pos()[1].driver], 0.8019, 1e-12);
}

TEST(Partition, PipelineLatchProbsPropagate) {
  // Acyclic latch chain: s1 <- a&b, s2 <- s1|c.  No cuts needed; latch
  // probabilities follow the cone probabilities of the previous stage.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId s1 = net.add_latch("s1");
  const NodeId s2 = net.add_latch("s2");
  net.set_latch_input(s1, net.add_and(a, b));
  net.set_latch_input(s2, net.add_or(s1, c));
  net.add_po("f", s2);

  const std::vector<double> pi_probs(3, 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_TRUE(result.cut_latches.empty());
  EXPECT_NEAR(result.latch_probs[0], 0.25, 1e-12);          // p(a&b)
  EXPECT_NEAR(result.latch_probs[1], 1 - 0.75 * 0.5, 1e-12);  // p(s1|c)
}

TEST(Partition, SelfLoopLatchGetsCut) {
  // Toggle-ish latch: s <- !s & a.  The s-graph is a self-loop; s must be in
  // the cut and defaults to the prior probability 0.5.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s = net.add_latch("s");
  net.set_latch_input(s, net.add_and(net.add_not(s), a));
  net.add_po("f", s);

  const std::vector<double> pi_probs(1, 1.0);
  SeqProbOptions options;
  const auto result = sequential_signal_probabilities(net, pi_probs, options);
  EXPECT_EQ(result.cut_latches, (std::vector<std::uint32_t>{0}));
  EXPECT_NEAR(result.latch_probs[0], 0.5, 1e-12);
}

TEST(Partition, FixpointSweepsRefineCutLatches) {
  // s <- s | a with p(a) = 0.5: the true steady-state probability of s
  // approaches 1.  Fixpoint sweeps should move the cut-latch prior upward.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s = net.add_latch("s");
  net.set_latch_input(s, net.add_or(s, a));
  net.add_po("f", s);

  const std::vector<double> pi_probs(1, 0.5);
  SeqProbOptions none;
  none.fixpoint_sweeps = 0;
  const auto base = sequential_signal_probabilities(net, pi_probs, none);
  EXPECT_NEAR(base.latch_probs[0], 0.5, 1e-12);

  SeqProbOptions refined;
  refined.fixpoint_sweeps = 6;
  const auto better = sequential_signal_probabilities(net, pi_probs, refined);
  EXPECT_GT(better.latch_probs[0], 0.95);
}

TEST(Partition, CrossCoupledLatchesCutOnce) {
  // s0 <-> s1 two-cycle: one cut breaks it; the other latch follows.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s0 = net.add_latch("s0");
  const NodeId s1 = net.add_latch("s1");
  net.set_latch_input(s0, net.add_and(s1, a));
  net.set_latch_input(s1, net.add_or(s0, a));
  net.add_po("f", net.add_and(s0, s1));

  const std::vector<double> pi_probs(1, 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_EQ(result.cut_latches.size(), 1u);
  EXPECT_EQ(result.sgraph_edges, 2u);
  // The non-cut latch probability is derived, not the 0.5 prior.
  const auto cut = result.cut_latches[0];
  const auto other = 1 - cut;
  if (cut == 0)
    EXPECT_NEAR(result.latch_probs[other], 0.75, 1e-9);  // p(s0|a), s0=0.5
  else
    EXPECT_NEAR(result.latch_probs[other], 0.25, 1e-9);  // p(s1&a)
}

/// A generated circuit in the flow's normal form, as FlowSession builds
/// its probabilities on it.
Network flow_ready(const BenchSpec& spec) {
  Network net = compact_copy(generate_benchmark(spec));
  try {
    check_phase_ready(net);
  } catch (const std::runtime_error&) {
    standard_synthesis(net);
  }
  return net;
}

TEST(Partition, ApproxFallbackOverBudget) {
  // Industry 1 (24 latches) exhausts the BDD work budget: the latch sweep
  // and node probabilities come from the independence approximation.
  const Network net = flow_ready(paper_spec("Industry 1"));
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_FALSE(result.used_exact_bdd);
  EXPECT_FALSE(result.cut_latches.empty());
  EXPECT_EQ(result.node_probs,
            approx_signal_probabilities(net, pi_probs, result.latch_probs));
  for (const double p : result.latch_probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Partition, DefaultBudgetDecisionBoundary) {
  // Pins which circuits the default work budget builds exactly.  The
  // heaviest exact one, the 24-PI 12000-gate 32-PO generator circuit of
  // the distributed-search benches, needs ~3.5 M of the 4.2 M steps; x3 and
  // Industry 3 need far more and fall back.
  BenchSpec heavy;
  heavy.name = "heavy77";
  heavy.num_pis = 24;
  heavy.num_pos = 32;
  heavy.gate_target = 12000;
  heavy.seed = 77;
  const std::pair<BenchSpec, bool> cases[] = {
      {paper_spec("apex7"), true}, {paper_spec("frg1"), true},
      {paper_spec("x1"), true},    {heavy, true},
      {paper_spec("x3"), false},   {paper_spec("Industry 3"), false},
  };
  for (const auto& [spec, exact] : cases) {
    const Network net = flow_ready(spec);
    const std::vector<double> pi_probs(net.num_pis(), 0.5);
    EXPECT_EQ(sequential_signal_probabilities(net, pi_probs).used_exact_bdd,
              exact)
        << spec.name;
  }
}

TEST(Partition, ProbabilitiesMatchSequentialSimulation) {
  // End-to-end sanity: steady-state latch probabilities from the analytic
  // partitioned computation should be close to a long clocked simulation of
  // an inverter-free sequential network.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId s0 = net.add_latch("s0");
  const NodeId s1 = net.add_latch("s1");
  net.set_latch_input(s0, net.add_or(net.add_and(a, b), net.add_and(s1, b)));
  net.set_latch_input(s1, net.add_and(s0, net.add_or(a, b)));
  net.add_po("f", net.add_or(s0, s1));
  // Make it inverter-free for the domino simulator (it already is).

  const std::vector<double> pi_probs(2, 0.5);
  SeqProbOptions options;
  options.fixpoint_sweeps = 8;
  const auto analytic = sequential_signal_probabilities(net, pi_probs, options);

  SimPowerOptions sim;
  sim.steps = 3000;
  sim.warmup = 100;
  const auto measured = simulate_domino_power(net, pi_probs, sim);
  for (std::size_t k = 0; k < net.num_latches(); ++k) {
    const NodeId out = net.latches()[k].output;
    EXPECT_NEAR(analytic.latch_probs[k], measured.one_rate[out], 0.05)
        << "latch " << k;
  }
}

TEST(Partition, SymmetryStatsSurface) {
  // Clone-heavy sequential structure should report symmetry merges.
  Network net;
  const NodeId a = net.add_pi("a");
  std::vector<NodeId> group;
  for (int i = 0; i < 3; ++i) group.push_back(net.add_latch('g' + std::to_string(i)));
  const NodeId c = net.add_latch("c");
  const NodeId d = net.add_latch("d");
  // A/B/E-style: each group latch reads {c,d}; c,d read all group latches.
  for (const NodeId g : group)
    net.set_latch_input(g, net.add_and(net.add_or(c, d), a));
  const NodeId all = net.add_and(net.add_and(group[0], group[1]), group[2]);
  net.set_latch_input(c, all);
  net.set_latch_input(d, net.add_or(net.add_or(group[0], group[1]), group[2]));
  net.add_po("f", c);

  const std::vector<double> pi_probs(1, 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_GT(result.symmetry_merges, 0u);
  EXPECT_EQ(result.cut_latches.size(), 2u);  // {c, d}
}

}  // namespace
}  // namespace dominosyn
