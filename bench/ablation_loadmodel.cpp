/// \file ablation_loadmodel.cpp
/// Ablation of the estimator's C_i: the paper's §5 simplification (C_i = 1,
/// pure switching activity) vs the structural load model (C_i = wire + pins
/// + PO loads, see PowerModelConfig::load_aware).  Both searches run the
/// same §4.1 machinery; the simulated (load-weighted) power of the resulting
/// realizations shows how much objective/measurement alignment matters.
///
/// One FlowSession serves all three runs per circuit: flipping load_aware
/// through set_options invalidates the EvalContext and the searches but keeps
/// the synthesized form and the BDD probabilities (C_i never enters them).

#include <algorithm>
#include <iostream>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "flow/report.hpp"

int main() {
  using namespace dominosyn;
  std::cout << "=== Ablation: estimator C_i = 1 (paper §5) vs structural "
               "load model ===\n\n";

  TextTable table;
  table.header({"Ckt", "probs", "MA sim", "MP sim (Ci=1)", "sav %",
                "MP sim (load)", "sav %", "cells Ci=1", "cells load"});

  double sum_unit = 0.0, sum_load = 0.0;
  std::size_t rows = 0;
  for (const BenchSpec& base : paper_suite()) {
    BenchSpec spec = base;
    spec.gate_target = std::min<std::size_t>(spec.gate_target, 1500);
    const Network net = generate_benchmark(spec);

    FlowOptions options;
    options.sim.steps = 512;
    options.sim.warmup = 8;

    FlowSession session(net, options);
    const FlowReport ma = session.report(PhaseMode::kMinArea);

    options.model.load_aware = false;  // the paper's C_i = 1
    session.set_options(options);
    const FlowReport unit = session.report(PhaseMode::kMinPower);
    options.model.load_aware = true;
    session.set_options(options);
    const FlowReport load = session.report(PhaseMode::kMinPower);

    const double sav_unit = (ma.sim_power - unit.sim_power) / ma.sim_power;
    const double sav_load = (ma.sim_power - load.sim_power) / ma.sim_power;
    sum_unit += sav_unit;
    sum_load += sav_load;
    ++rows;
    table.row({spec.name, ma.used_exact_bdd ? "exact" : "approx",
               fmt(ma.sim_power, 1), fmt(unit.sim_power, 1),
               fmt_pct(sav_unit), fmt(load.sim_power, 1), fmt_pct(sav_load),
               std::to_string(unit.cells), std::to_string(load.cells)});
  }
  table.row({"Average", "", "", "", fmt_pct(sum_unit / rows), "",
             fmt_pct(sum_load / rows), "", ""});
  table.print(std::cout);

  std::cout << "\nprobs = approx: the BDD build exceeded its work budget, "
               "so both searches ran on\nindependence-approximated "
               "probabilities.\n";
  std::cout << "\nShape check: the load-aware objective should dominate "
               "C_i = 1 on measured power\n(it declines flips whose boundary-"
               "inverter loading exceeds the block saving), while\nC_i = 1 "
               "reproduces the paper's literal experimental setting.\n";
  return 0;
}
