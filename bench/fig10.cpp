/// \file fig10.cpp
/// Regenerates Figure 10: BDD sizes of the P,Q,R circuit (P = x1·x2·x3,
/// Q = x3·x4, R = (P+Q)·x5) under three variable orderings:
///   * reverse first-visit topological (the paper's heuristic): 7 nodes
///   * plain first-visit topological: 11 nodes
///   * "disturbed grouping" with x1 sandwiched after x5: 9 nodes
/// and then sweeps the ordering comparison over the benchmark suite.

#include <algorithm>
#include <limits>
#include <iostream>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"
#include "flow/report.hpp"

namespace {

using namespace dominosyn;

/// Shared BDD size, or 0 if the ordering exhausts the BDD work budget.
std::size_t shared_size(const Network& net, const VariableOrder& order,
                        const std::vector<NodeId>& roots) {
  try {
    auto bdds = build_bdds(net, order);
    std::vector<Bdd> funcs;
    for (const NodeId id : roots) funcs.push_back(bdds.node_funcs[id]);
    return bdds.mgr->dag_size_shared(funcs);
  } catch (const BddLimitExceeded&) {
    return 0;
  }
}

std::string size_cell(std::size_t nodes) {
  return nodes == 0 ? std::string("blowup") : std::to_string(nodes);
}

}  // namespace

int main() {
  using namespace dominosyn;
  std::cout << "=== Figure 10: BDD variable ordering on the P,Q,R circuit ===\n\n";

  const Network net = make_figure10_circuit();
  const std::vector<NodeId> roots = {net.find_node("P"), net.find_node("Q"),
                                     net.find_node("R")};

  TextTable example;
  example.header({"ordering", "variables (top..bottom)", "BDD nodes", "paper"});
  {
    const auto order = compute_order(net, OrderingKind::kReverseTopological);
    std::string vars;
    for (const NodeId src : order.sources_in_order)
      vars += net.node_name(src).value_or("?") + " ";
    example.row({"reverse topological (paper)", vars,
                 std::to_string(shared_size(net, order, roots)), "7"});
  }
  {
    const auto order = compute_order(net, OrderingKind::kTopological);
    std::string vars;
    for (const NodeId src : order.sources_in_order)
      vars += net.node_name(src).value_or("?") + " ";
    example.row({"topological", vars,
                 std::to_string(shared_size(net, order, roots)), "11"});
  }
  {
    const NodeId disturbed[] = {net.find_node("x5"), net.find_node("x1"),
                                net.find_node("x3"), net.find_node("x4"),
                                net.find_node("x2")};
    example.row({"disturbed grouping", "x5 x1 x3 x4 x2",
                 std::to_string(shared_size(
                     net, order_from_sources(net, disturbed), roots)),
                 "9"});
  }
  example.print(std::cout);

  std::cout << "\nOrdering sweep over the benchmark suite (shared BDD nodes "
               "for all PO functions):\n\n";
  TextTable sweep;
  sweep.header({"Ckt", "natural", "topological", "reverse-topo (paper)",
                "random", "best"});
  for (const BenchSpec& base : paper_suite()) {
    BenchSpec spec = base;
    // Keep the sweep quick: cap the largest stand-ins.
    spec.gate_target = std::min<std::size_t>(spec.gate_target, 500);
    const Network circuit = generate_benchmark(spec);
    std::vector<NodeId> po_roots;
    for (const auto& po : circuit.pos()) po_roots.push_back(po.driver);

    const auto measure = [&](OrderingKind kind) -> std::size_t {
      const auto order = compute_order(circuit, kind, /*seed=*/9);
      return shared_size(circuit, order, po_roots);
    };
    const std::size_t nat = measure(OrderingKind::kNatural);
    const std::size_t topo = measure(OrderingKind::kTopological);
    const std::size_t rev = measure(OrderingKind::kReverseTopological);
    const std::size_t rnd = measure(OrderingKind::kRandom);
    const auto rank = [](std::size_t n) {  // blowups sort last
      return n == 0 ? std::numeric_limits<std::size_t>::max() : n;
    };
    const std::size_t best = std::min({rank(nat), rank(topo), rank(rev), rank(rnd)});
    const char* winner = best == rank(rev) ? "reverse-topo"
                         : best == rank(topo) ? "topological"
                         : best == rank(nat) ? "natural"
                                             : "random";
    sweep.row({spec.name, size_cell(nat), size_cell(topo), size_cell(rev),
               size_cell(rnd), winner});
  }
  sweep.print(std::cout);
  std::cout << "\nShape check: random orderings are far worse (often exhausting "
               "the work budget);\nthe paper's heuristic and the first-visit "
               "orders trade wins depending on how\nthe output cones nest — "
               "reverse-topo dominates on nested-cone circuits like\nx1/x3, "
               "matching the structure the paper's Fig. 10 argument assumes.\n";
  return 0;
}
