/// \file ablation_cost.cpp
/// Ablation of the §4.1 cost function K: the paper's K-guided pair selection
/// vs a measure-all-combos oracle and a random-order baseline, plus the
/// exhaustive optimum where the output count allows (frg1's 2^3 space).
/// Reports final estimated power and the number of measured candidates.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "flow/report.hpp"
#include "phase/search.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace dominosyn;
  std::cout << "=== Ablation: min-power guidance (paper cost function K vs "
               "baselines) ===\n\n";

  TextTable table;
  table.header({"Ckt", "#POs", "init pwr", "K-guided", "trials", "measure-all",
                "trials", "random", "trials", "exhaustive"});

  for (const BenchSpec& base : paper_suite()) {
    BenchSpec spec = base;
    spec.gate_target = std::min<std::size_t>(spec.gate_target, 600);
    // Cap the widest circuits so the oracle stays tractable in this sweep.
    if (spec.num_pos > 40) spec.num_pos = 40;
    const Network net = generate_benchmark(spec);

    // Session stages supply the probabilities, the shared EvalContext and the
    // cone overlaps; the three guidance modes reuse all of them.
    FlowOptions flow_options;
    flow_options.model = PowerModelConfig{};  // the paper's C_i = 1 objective
    FlowSession session(net, flow_options);
    const AssignmentEvaluator& evaluator = session.evaluator();
    const ConeOverlap& overlap = session.cone_overlap();

    const auto run_mode = [&](GuidanceMode mode) {
      MinPowerOptions options;
      options.guidance = mode;
      return min_power_assignment(evaluator, overlap, options);
    };

    const auto guided = run_mode(GuidanceMode::kCostFunction);
    const auto oracle = run_mode(GuidanceMode::kMeasureAll);
    const auto random = run_mode(GuidanceMode::kRandom);

    std::string exhaustive = "-";
    if (net.num_pos() <= 12)
      exhaustive = fmt(exhaustive_min_power(evaluator).cost.power.total(), 3);

    table.row({spec.name, std::to_string(net.num_pos()),
               fmt(guided.initial_power, 3), fmt(guided.final_power, 3),
               std::to_string(guided.counters.evaluations),
               fmt(oracle.final_power, 3),
               std::to_string(oracle.counters.evaluations),
               fmt(random.final_power, 3),
               std::to_string(random.counters.evaluations), exhaustive});
  }
  table.print(std::cout);

  std::cout << "\nShape checks: the K-guided search should track the "
               "measure-all oracle's power\nat ~1/4 of its measurements, and "
               "clearly beat the random baseline; on frg1 it\nshould match "
               "the exhaustive optimum (the paper's 'even 8 assignments "
               "suffice'\nobservation).\n";
  return 0;
}
