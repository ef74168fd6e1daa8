/// \file table2.cpp
/// Regenerates Table 2: the Table 1 flow plus transistor (cell) resizing to
/// meet a realistic clock after technology mapping.  Methodology: the clock
/// target is the min-area realization's post-mapping critical path plus 5%
/// margin; both MA and MP are then resized to that same clock and measured.
///
/// Each circuit holds one FlowSession across the untimed probe and the two
/// timed runs: setting the clock through set_options invalidates only the
/// mapping/measurement stages, so the phase searches (and everything above
/// them) run exactly once per circuit.
///
/// Paper shapes to check: power-based phase assignment stays robust under
/// timing recovery (average saving rises to 35.3%), area penalties stay
/// modest, and at least one circuit (x3) ends with the MP realization
/// *smaller* than MA (-20%).

#include <iostream>

#include "benchgen/benchgen.hpp"
#include "util/cli.hpp"
#include "flow/session.hpp"
#include "flow/report.hpp"
#include "util/stopwatch.hpp"

/// Usage: table2 [num_threads]   (0 = one per hardware thread; default 1)
int main(int argc, char** argv) {
  using namespace dominosyn;
  const auto threads = cli::parse_threads(argc, argv, 1, "table2");
  if (!threads) return 2;

  std::cout << "=== Table 2: timed synthesis (resizing to a shared clock), "
               "PI prob 0.5 ===\n\n";

  const char* circuits[] = {"apex7", "frg1", "x1", "x3"};

  FlowOptions options;
  options.pi_prob = 0.5;
  options.sim.steps = 1024;
  options.sim.warmup = 16;
  options.num_threads = *threads;

  TextTable table;
  table.header({"Ckt", "#PIs", "#POs", "clock", "MA Size", "MA Pwr", "MP Size",
                "MP Pwr", "%AreaPen", "%PwrSav", "MP trials", "MP commits",
                "met", "sec"});

  double sum_area_pen = 0.0, sum_pwr_sav = 0.0;
  std::size_t rows = 0;
  for (const char* name : circuits) {
    Stopwatch watch;
    const BenchSpec& spec = paper_spec(name);
    const Network net = generate_benchmark(spec);

    // Untimed MA run fixes the shared clock target.
    options.clock_period = 0.0;
    FlowSession session(net, options);
    const FlowReport ma_untimed = session.report(PhaseMode::kMinArea);
    const double clock = ma_untimed.critical_delay * 1.05;

    // Only mapping + measurement are stale under the new clock; the MA
    // assignment (and the MP search it seeds) is served from the cache.
    options.clock_period = clock;
    session.set_options(options);
    const FlowReport ma = session.report(PhaseMode::kMinArea);
    const FlowReport mp = session.report(PhaseMode::kMinPower);

    const double area_pen =
        (static_cast<double>(mp.cells) - static_cast<double>(ma.cells)) /
        static_cast<double>(ma.cells);
    const double pwr_sav = (ma.sim_power - mp.sim_power) / ma.sim_power;
    sum_area_pen += area_pen;
    sum_pwr_sav += pwr_sav;
    ++rows;

    table.row({spec.name, std::to_string(spec.num_pis),
               std::to_string(spec.num_pos), fmt(clock, 2),
               std::to_string(ma.cells), fmt(ma.sim_power, 2),
               std::to_string(mp.cells), fmt(mp.sim_power, 2),
               fmt_pct(area_pen), fmt_pct(pwr_sav),
               std::to_string(mp.search.evaluations),
               std::to_string(mp.search.commits),
               (ma.timing_met && mp.timing_met) ? "yes" : "NO",
               fmt(watch.seconds(), 1)});
  }
  table.row({"Average", "", "", "", "", "", "", "", fmt_pct(sum_area_pen / rows),
             fmt_pct(sum_pwr_sav / rows), "", "", "", ""});
  table.print(std::cout);

  std::cout << "\nPaper (Table 2): average area penalty 8.6%, average power "
               "saving 35.3%;\nboth realizations meet timing; x3's MP "
               "realization is smaller than MA.\n";
  return 0;
}
