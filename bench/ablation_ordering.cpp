/// \file ablation_ordering.cpp
/// Ablation of the §4.2.2 variable-ordering heuristic: shared BDD node
/// counts and build time for the paper's reverse-topological order vs
/// natural, plain topological and random orders, across the benchmark suite
/// at several sizes.  This isolates the design choice DESIGN.md calls out:
/// "reverse first-visit order + fan-out-cone tie-break".

#include <algorithm>
#include <cmath>
#include <iostream>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"
#include "flow/report.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dominosyn;

struct Sample {
  std::size_t nodes = 0;
  double ms = 0.0;
};

Sample measure(const Network& net, OrderingKind kind, std::uint64_t seed) {
  Stopwatch watch;
  Sample sample;
  try {
    const auto order = compute_order(net, kind, seed);
    auto bdds = build_bdds(net, order);
    std::vector<Bdd> roots;
    for (const auto& po : net.pos()) roots.push_back(bdds.node_funcs[po.driver]);
    sample.nodes = bdds.mgr->dag_size_shared(roots);
  } catch (const BddLimitExceeded&) {
    sample.nodes = 0;  // rendered as "blowup" — itself a result: the bad
                       // ordering exhausted the work budget
  }
  sample.ms = watch.milliseconds();
  return sample;
}

}  // namespace

int main() {
  using namespace dominosyn;
  std::cout << "=== Ablation: BDD variable ordering (paper heuristic vs "
               "baselines) ===\n\n";

  TextTable table;
  table.header({"Ckt", "gates", "natural", "ms", "topo", "ms",
                "rev-topo (paper)", "ms", "random(best of 3)", "ms"});

  double geo_gain = 1.0;
  std::size_t rows = 0;
  const auto cell = [](const Sample& sample) {
    return sample.nodes == 0 ? std::string("blowup")
                             : std::to_string(sample.nodes);
  };
  for (const BenchSpec& base : paper_suite()) {
    BenchSpec spec = base;
    spec.gate_target = std::min<std::size_t>(spec.gate_target, 500);
    const Network net = generate_benchmark(spec);

    const Sample nat = measure(net, OrderingKind::kNatural, 0);
    const Sample topo = measure(net, OrderingKind::kTopological, 0);
    const Sample rev = measure(net, OrderingKind::kReverseTopological, 0);
    Sample rnd = measure(net, OrderingKind::kRandom, 1);
    for (std::uint64_t s = 2; s <= 3; ++s) {
      const Sample r = measure(net, OrderingKind::kRandom, s);
      if (rnd.nodes == 0 || (r.nodes != 0 && r.nodes < rnd.nodes)) rnd = r;
    }

    table.row({spec.name, std::to_string(net.num_gates()), cell(nat),
               fmt(nat.ms, 1), cell(topo), fmt(topo.ms, 1), cell(rev),
               fmt(rev.ms, 1), cell(rnd), fmt(rnd.ms, 1)});
    if (nat.nodes != 0 && rev.nodes != 0) {
      geo_gain *= static_cast<double>(nat.nodes) / static_cast<double>(rev.nodes);
      ++rows;
    }
  }
  table.print(std::cout);
  if (rows > 0)
    std::cout << "\nGeometric-mean node reduction of the paper ordering vs "
                 "natural (both finite): "
              << fmt((std::pow(geo_gain, 1.0 / rows) - 1.0) * 100.0, 1) << "%\n";
  return 0;
}
