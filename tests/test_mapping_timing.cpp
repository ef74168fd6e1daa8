/// Tests for the domino cell library, technology mapping, STA and resizing.

#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "mapping/mapper.hpp"
#include "phase/assignment.hpp"
#include "timing/timing.hpp"
#include "util/rng.hpp"

namespace dominosyn {
namespace {

MapResult map_fig5(const PhaseAssignment& phases, MapOptions options = {}) {
  const Network net = make_figure5_circuit();
  const auto domino = synthesize_domino(net, phases);
  static const CellLibrary lib = CellLibrary::generic();
  return map_network(domino.net, lib, options);
}

TEST(Library, GenericContentsAndLookup) {
  const CellLibrary lib = CellLibrary::generic();
  EXPECT_EQ(lib.max_arity(CellFunction::kDominoAnd), 4u);
  EXPECT_EQ(lib.max_arity(CellFunction::kDominoOr), 8u);
  EXPECT_EQ(lib.num_sizes(CellFunction::kDominoAnd, 2), 3u);
  const Cell& and2 = lib.pick(CellFunction::kDominoAnd, 2, 0);
  EXPECT_EQ(and2.name, "DAND2_X1");
  EXPECT_THROW((void)lib.pick(CellFunction::kDominoAnd, 9), std::runtime_error);
  const Cell* or5 = lib.pick_at_least(CellFunction::kDominoOr, 5);
  ASSERT_NE(or5, nullptr);
  EXPECT_EQ(or5->arity, 8u);
  EXPECT_EQ(lib.pick_at_least(CellFunction::kDominoAnd, 5), nullptr);
}

TEST(Library, SizingMonotonic) {
  const CellLibrary lib = CellLibrary::generic();
  for (unsigned s = 0; s + 1 < 3; ++s) {
    const Cell& small = lib.pick(CellFunction::kDominoAnd, 2, s);
    const Cell& large = lib.pick(CellFunction::kDominoAnd, 2, s + 1);
    EXPECT_LT(small.area, large.area);
    EXPECT_LT(small.input_cap, large.input_cap);
    EXPECT_GT(small.drive_res, large.drive_res);
  }
  // Series AND stacks are slower than parallel ORs of the same arity (§4.2).
  EXPECT_GT(lib.pick(CellFunction::kDominoAnd, 4).intrinsic_delay,
            lib.pick(CellFunction::kDominoOr, 4).intrinsic_delay);
}

TEST(Mapping, EveryGateGetsACell) {
  const auto mapped = map_fig5({Phase::kNegative, Phase::kNegative});
  for (NodeId id = 0; id < mapped.netlist.net.num_nodes(); ++id) {
    const NodeKind kind = mapped.netlist.net.kind(id);
    if (is_gate_kind(kind) || kind == NodeKind::kLatch) {
      ASSERT_NE(mapped.netlist.cell_of[id], nullptr) << id;
      EXPECT_GE(mapped.netlist.cell_of[id]->arity,
                mapped.netlist.net.fanins(id).size());
    } else {
      EXPECT_EQ(mapped.netlist.cell_of[id], nullptr);
    }
  }
  EXPECT_GT(mapped.netlist.cell_count(), 0u);
  EXPECT_GT(mapped.netlist.total_area(), 0.0);
}

TEST(Mapping, PreservesFunction) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BenchSpec spec;
    spec.name = "map";
    spec.num_pis = 9;
    spec.num_pos = 5;
    spec.num_latches = seed % 2 ? 2 : 0;
    spec.gate_target = 70;
    spec.seed = seed;
    const Network net = generate_benchmark(spec);

    Rng rng(seed);
    PhaseAssignment phases(net.num_pos());
    for (auto& p : phases)
      p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
    const auto domino = synthesize_domino(net, phases);
    static const CellLibrary lib = CellLibrary::generic();
    const auto mapped = map_network(domino.net, lib);
    EXPECT_TRUE(random_equivalent(domino.net, mapped.netlist.net)) << seed;
    EXPECT_TRUE(random_equivalent(net, mapped.netlist.net)) << seed;
  }
}

TEST(Mapping, CollapsesFanoutFreeTrees) {
  // Chain of three 2-input ANDs with fanout 1 -> a single AND4 cell.
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 4; ++i) pis.push_back(net.add_pi("p" + std::to_string(i)));
  const NodeId g1 = net.add_and(pis[0], pis[1]);
  const NodeId g2 = net.add_and(g1, pis[2]);
  const NodeId g3 = net.add_and(g2, pis[3]);
  net.add_po("f", g3);
  static const CellLibrary lib = CellLibrary::generic();
  const auto mapped = map_network(net, lib);
  EXPECT_EQ(mapped.netlist.cell_count(), 1u);
  EXPECT_EQ(mapped.netlist.cell_of[mapped.netlist.net.pos()[0].driver]->arity, 4u);
}

TEST(Mapping, RespectsFanoutBoundaries) {
  // Shared internal node must not be absorbed.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId shared = net.add_and(a, b);
  net.add_po("f", net.add_and(shared, c));
  net.add_po("g", net.add_or(shared, c));
  static const CellLibrary lib = CellLibrary::generic();
  const auto mapped = map_network(net, lib);
  EXPECT_EQ(mapped.netlist.cell_count(), 3u);
}

TEST(Mapping, ArityLimitsGenerateTrees) {
  // A 10-input AND with max AND arity 4 needs a 3-cell tree.
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 10; ++i) pis.push_back(net.add_pi('p' + std::to_string(i)));
  NodeId acc = pis[0];
  for (int i = 1; i < 10; ++i) acc = net.add_and(acc, pis[i]);
  net.add_po("f", acc);
  static const CellLibrary lib = CellLibrary::generic();
  const auto mapped = map_network(net, lib);
  EXPECT_EQ(mapped.netlist.cell_count(), 3u);
  EXPECT_TRUE(random_equivalent(net, mapped.netlist.net));
}

TEST(Mapping, OriginTracksProbabilityCarryOver) {
  const Network net = make_figure5_circuit();
  const auto domino = synthesize_domino(net, all_positive(net));
  static const CellLibrary lib = CellLibrary::generic();
  const auto mapped = map_network(domino.net, lib);
  for (NodeId id = 0; id < mapped.netlist.net.num_nodes(); ++id) {
    if (!is_gate_kind(mapped.netlist.net.kind(id))) continue;
    ASSERT_NE(mapped.origin_of[id], kNullNode);
    ASSERT_LT(mapped.origin_of[id], domino.net.num_nodes());
  }
}

TEST(Mapping, LoadsAndClockCap) {
  const auto mapped = map_fig5(all_positive(make_figure5_circuit()));
  const auto loads = mapped.netlist.node_loads();
  // Every driven node has positive load; PO drivers carry the external load.
  for (const auto& po : mapped.netlist.net.pos())
    EXPECT_GE(loads[po.driver], 1.0);
  EXPECT_GT(mapped.netlist.clock_load(), 0.0);
}

TEST(Timing, ArrivalMonotoneAlongPaths) {
  const auto mapped = map_fig5({Phase::kNegative, Phase::kNegative});
  const auto timing = sta(mapped.netlist);
  const Network& net = mapped.netlist.net;
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    for (const NodeId f : net.fanins(id))
      EXPECT_LE(timing.arrival[f], timing.arrival[id] + 1e-12);
  EXPECT_GT(timing.critical_delay, 0.0);
  ASSERT_FALSE(timing.critical_path.empty());
  // The path ends at the most critical sink.
  EXPECT_NEAR(timing.arrival[timing.critical_path.back()],
              timing.critical_delay, 1e-12);
}

TEST(Timing, SlackSignsMatchConstraint) {
  const auto mapped = map_fig5(all_positive(make_figure5_circuit()));
  const auto relaxed = sta(mapped.netlist, /*clock_period=*/100.0);
  for (NodeId id = 0; id < mapped.netlist.net.num_nodes(); ++id)
    EXPECT_GE(relaxed.slack[id], 0.0);
  const auto tight = sta(mapped.netlist, /*clock_period=*/0.01);
  double min_slack = 1e9;
  for (const double s : tight.slack) min_slack = std::min(min_slack, s);
  EXPECT_LT(min_slack, 0.0);
}

TEST(Timing, ResizeMeetsAchievableTarget) {
  BenchSpec spec;
  spec.name = "resize";
  spec.num_pis = 10;
  spec.num_pos = 5;
  spec.gate_target = 90;
  spec.seed = 14;
  const Network net = generate_benchmark(spec);
  const auto domino = synthesize_domino(net, all_positive(net));
  static const CellLibrary lib = CellLibrary::generic();
  auto mapped = map_network(domino.net, lib);

  const double unsized = sta(mapped.netlist).critical_delay;
  // Ask for a modest speedup: 12% faster than the unsized netlist.
  const double target = unsized * 0.88;
  const auto resize = resize_to_meet(mapped.netlist, target);
  EXPECT_TRUE(resize.met);
  EXPECT_LE(resize.achieved, target + 1e-9);
  EXPECT_GT(resize.upsized, 0u);
  EXPECT_GT(resize.area_after, resize.area_before);
  // Function unchanged by sizing.
  EXPECT_TRUE(random_equivalent(domino.net, mapped.netlist.net));
}

TEST(Timing, ResizeReportsFailureOnImpossibleTarget) {
  const auto mapped_result = map_fig5({Phase::kNegative, Phase::kNegative});
  auto netlist = mapped_result.netlist;
  const auto resize = resize_to_meet(netlist, 1e-6);
  EXPECT_FALSE(resize.met);
  EXPECT_GT(resize.achieved, 1e-6);
}

TEST(Timing, ResizeRejectsNonPositivePeriod) {
  auto mapped = map_fig5(all_positive(make_figure5_circuit()));
  EXPECT_THROW((void)resize_to_meet(mapped.netlist, 0.0), std::runtime_error);
}

}  // namespace
}  // namespace dominosyn
