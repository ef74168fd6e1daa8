/// Tests for the network rewriting passes: simplification, structural
/// hashing, binary decomposition.  The central property: every pass preserves
/// combinational function.

#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "network/network.hpp"
#include "network/synth.hpp"

namespace dominosyn {
namespace {

TEST(Simplify, ConstantPropagationThroughAnd) {
  Network net;
  const NodeId a = net.add_pi("a");
  net.add_po("f", net.add_and(a, Network::const0()));
  net.add_po("g", net.add_and(a, Network::const1()));
  simplify(net);
  EXPECT_EQ(net.pos()[0].driver, Network::const0());
  EXPECT_EQ(net.pos()[1].driver, net.pis()[0]);
  EXPECT_EQ(net.num_gates(), 0u);
}

TEST(Simplify, ConstantPropagationThroughOr) {
  Network net;
  const NodeId a = net.add_pi("a");
  net.add_po("f", net.add_or(a, Network::const1()));
  net.add_po("g", net.add_or(a, Network::const0()));
  simplify(net);
  EXPECT_EQ(net.pos()[0].driver, Network::const1());
  EXPECT_EQ(net.pos()[1].driver, net.pis()[0]);
}

TEST(Simplify, DoubleNegationCancels) {
  Network net;
  const NodeId a = net.add_pi("a");
  net.add_po("f", net.add_not(net.add_not(a)));
  simplify(net);
  EXPECT_EQ(net.pos()[0].driver, net.pis()[0]);
  EXPECT_EQ(net.num_inverters(), 0u);
}

TEST(Simplify, IdempotentAndComplementRules) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId na = net.add_not(a);
  net.add_po("xx", net.add_and(a, a));       // = a
  net.add_po("xnx", net.add_and(a, na));     // = 0
  net.add_po("oxnx", net.add_or(a, na));     // = 1
  simplify(net);
  EXPECT_EQ(net.pos()[0].driver, net.pis()[0]);
  EXPECT_EQ(net.pos()[1].driver, Network::const0());
  EXPECT_EQ(net.pos()[2].driver, Network::const1());
}

TEST(Simplify, XorRules) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("self", net.add_xor(a, a));  // = 0
  net.add_po("c0", net.add_xor(a, Network::const0()));  // = a
  net.add_po("c1", net.add_xor(b, Network::const1()));  // = !b
  simplify(net);
  EXPECT_EQ(net.pos()[0].driver, Network::const0());
  EXPECT_EQ(net.pos()[1].driver, net.pis()[0]);
  EXPECT_EQ(net.kind(net.pos()[2].driver), NodeKind::kNot);
}

TEST(Strash, MergesStructuralDuplicates) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g1 = net.add_and(a, b);
  const NodeId g2 = net.add_and(b, a);  // commutative duplicate
  net.add_po("f", net.add_or(g1, g2));
  strash(net);
  // After hashing, the OR's two fanins collapse, and OR(x,x) simplifies.
  EXPECT_EQ(net.num_gates(), 1u);
  EXPECT_EQ(net.kind(net.pos()[0].driver), NodeKind::kAnd);
}

TEST(Strash, KeepsDistinctFunctions) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("f", net.add_and(a, b));
  net.add_po("g", net.add_or(a, b));
  strash(net);
  EXPECT_EQ(net.num_gates(), 2u);
}

TEST(DecomposeBinary, LowersWideGates) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 7; ++i) pis.push_back(net.add_pi('p' + std::to_string(i)));
  net.add_po("f", net.add_gate(NodeKind::kAnd, {pis.begin(), pis.end()}));
  decompose_binary(net);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (is_gate_kind(net.kind(id)) && net.kind(id) != NodeKind::kNot) {
      EXPECT_EQ(net.fanins(id).size(), 2u);
    }
  }
  // Balanced tree of 7 leaves: depth 3.
  const auto stats = network_stats(net);
  EXPECT_EQ(stats.ands, 6u);
  EXPECT_EQ(stats.depth, 3u);
}

TEST(DecomposeBinary, ExpandsXor) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  net.add_po("f", net.add_gate(NodeKind::kXor, {a, b, c}));
  decompose_binary(net);
  const auto stats = network_stats(net);
  EXPECT_EQ(stats.xors, 0u);
  for (int bits = 0; bits < 8; ++bits) {
    const bool vals[] = {bool(bits & 1), bool(bits & 2), bool(bits & 4)};
    EXPECT_EQ(net.evaluate(vals)[0], ((bits & 1) ^ ((bits >> 1) & 1) ^ ((bits >> 2) & 1)) != 0);
  }
}

TEST(RemoveDeadNodes, DropsUnreachableGates) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_and(a, b);  // dead
  net.add_po("f", net.add_or(a, b));
  const auto stats = remove_dead_nodes(net);
  EXPECT_EQ(stats.removed(), 1u);
  EXPECT_EQ(net.num_gates(), 1u);
}

TEST(CompactCopy, PreservesInterfaceAndMapping) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s = net.add_latch("s", LatchInit::kOne);
  const NodeId g = net.add_and(a, s);
  net.add_po("f", g);
  net.set_latch_input(s, g);

  std::vector<NodeId> map;
  const Network copy = compact_copy(net, &map);
  EXPECT_EQ(copy.num_pis(), 1u);
  EXPECT_EQ(copy.num_latches(), 1u);
  EXPECT_EQ(copy.latches()[0].init, LatchInit::kOne);
  EXPECT_NE(map[g], kNullNode);
  EXPECT_EQ(copy.kind(map[g]), NodeKind::kAnd);
  EXPECT_TRUE(random_equivalent(net, copy));
}

// ---- property sweeps ---------------------------------------------------------

class TransformEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformEquivalence, AllPassesPreserveFunction) {
  BenchSpec spec;
  spec.name = "prop";
  spec.num_pis = 8;
  spec.num_pos = 5;
  spec.num_latches = GetParam() % 2 == 0 ? 0 : 3;
  spec.gate_target = 60;
  spec.seed = GetParam();
  // generate_benchmark already runs standard_synthesis; rebuild a raw copy
  // to exercise each pass separately.
  const Network reference = generate_benchmark(spec);

  Network net = compact_copy(reference);
  simplify(net);
  EXPECT_TRUE(random_equivalent(reference, net)) << "simplify";
  strash(net);
  EXPECT_TRUE(random_equivalent(reference, net)) << "strash";
  decompose_binary(net);
  EXPECT_TRUE(random_equivalent(reference, net)) << "decompose";
  remove_dead_nodes(net);
  EXPECT_TRUE(random_equivalent(reference, net)) << "dce";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(StandardSynthesis, ProducesBinaryNetwork) {
  BenchSpec spec;
  spec.name = "syn";
  spec.num_pis = 10;
  spec.num_pos = 4;
  spec.gate_target = 80;
  spec.seed = 3;
  const Network net = generate_benchmark(spec);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NodeKind kind = net.kind(id);
    EXPECT_NE(kind, NodeKind::kXor);
    if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
      EXPECT_EQ(net.fanins(id).size(), 2u);
    }
  }
}

TEST(StandardSynthesis, IsIdempotentOnGateCount) {
  BenchSpec spec;
  spec.name = "idem";
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.gate_target = 50;
  spec.seed = 9;
  Network net = generate_benchmark(spec);
  const std::size_t gates = net.num_gates();
  standard_synthesis(net);
  EXPECT_EQ(net.num_gates(), gates);
}

}  // namespace
}  // namespace dominosyn
