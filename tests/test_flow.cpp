/// Integration tests for the end-to-end flow (§5): min-area vs min-power on
/// stand-in circuits, equivalence, timing, and report integrity.  Multi-mode
/// comparisons run on staged FlowSessions (one shared context per circuit);
/// run_flow coverage remains for the compatibility wrapper.  The session /
/// batch machinery itself is tested in test_flow_session.cpp.

#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "flow/report.hpp"

namespace dominosyn {
namespace {

BenchSpec small_spec(std::uint64_t seed, std::size_t latches = 0) {
  BenchSpec spec;
  spec.name = "flow" + std::to_string(seed);
  spec.num_pis = 10;
  spec.num_pos = 6;
  spec.num_latches = latches;
  spec.gate_target = 90;
  spec.seed = seed;
  return spec;
}

FlowOptions fast_options() {
  FlowOptions options;
  options.sim.steps = 600;
  options.sim.warmup = 8;
  return options;
}

TEST(Flow, ReportFieldsPopulated) {
  const Network net = generate_benchmark(small_spec(1));
  FlowOptions options = fast_options();
  options.mode = PhaseMode::kMinPower;
  const FlowReport report = run_flow(net, options);

  EXPECT_EQ(report.pis, 10u);
  EXPECT_EQ(report.pos, 6u);
  EXPECT_GT(report.synth_gates, 0u);
  EXPECT_GT(report.block_gates, 0u);
  EXPECT_GT(report.cells, 0u);
  EXPECT_GT(report.area, 0.0);
  EXPECT_GT(report.est_power, 0.0);
  EXPECT_GT(report.sim_power, 0.0);
  EXPECT_GT(report.critical_delay, 0.0);
  EXPECT_TRUE(report.equivalence_ok);
  EXPECT_TRUE(report.used_exact_bdd);
  EXPECT_EQ(report.assignment.size(), 6u);
}

TEST(Flow, MinPowerEstimateNeverAboveAllPositive) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Network net = generate_benchmark(small_spec(seed));
    FlowSession session(net, fast_options());
    const auto base = session.report(PhaseMode::kAllPositive);
    const auto mp = session.report(PhaseMode::kMinPower);
    EXPECT_LE(mp.est_power, base.est_power + 1e-9) << seed;
    EXPECT_TRUE(mp.equivalence_ok) << seed;
  }
}

TEST(Flow, ExhaustiveLowerBoundsHeuristicOnSmallPoCount) {
  BenchSpec spec = small_spec(7);
  spec.num_pos = 5;
  const Network net = generate_benchmark(spec);
  FlowSession session(net, fast_options());
  const auto best = session.report(PhaseMode::kExhaustivePower);
  const auto heuristic = session.report(PhaseMode::kMinPower);
  EXPECT_LE(best.est_power, heuristic.est_power + 1e-9);
}

TEST(Flow, SequentialCircuitRunsEndToEnd) {
  const Network net = generate_benchmark(small_spec(3, /*latches=*/4));
  FlowOptions options = fast_options();
  options.mode = PhaseMode::kMinPower;
  const FlowReport report = run_flow(net, options);
  EXPECT_EQ(report.latches, 4u);
  EXPECT_TRUE(report.equivalence_ok);
  EXPECT_GT(report.sim_power, 0.0);
}

TEST(Flow, TimedFlowMeetsSharedClock) {
  const Network net = generate_benchmark(small_spec(4));
  FlowOptions options = fast_options();
  FlowSession session(net, options);
  const auto ma = session.report(PhaseMode::kMinArea);

  // Table 2 methodology: both realizations must meet the same clock, set
  // from the min-area critical path with a little margin.  The new clock
  // only re-runs mapping + measurement on the session.
  const double clock = ma.critical_delay * 1.05;
  options.clock_period = clock;
  session.set_options(options);
  const auto ma_timed = session.report(PhaseMode::kMinArea);
  const auto mp_timed = session.report(PhaseMode::kMinPower);
  EXPECT_TRUE(ma_timed.timing_met);
  EXPECT_TRUE(mp_timed.timing_met);
  EXPECT_LE(ma_timed.critical_delay, clock + 1e-9);
  EXPECT_LE(mp_timed.critical_delay, clock + 1e-9);
  // The clock change must not have re-run either phase search.
  EXPECT_EQ(session.stats().assign_searches, 2u);
}

/// Every search counter, field by field (`want` lists them in
/// DOMINOSYN_SEARCH_COUNTERS order): a swap anywhere between the search and
/// the report fails here, where a sum would not notice.
void expect_counters(const SearchCounters& got, const SearchCounters& want) {
#define EXPECT_COUNTER(rule, type, field, ...) \
  EXPECT_EQ(got.field, want.field) << #field;
  DOMINOSYN_SEARCH_COUNTERS(EXPECT_COUNTER)
#undef EXPECT_COUNTER
}

TEST(Flow, PinnedReportFields) {
  // x1 (28 POs) takes the flow's two heuristic paths: its MA anneals and its
  // MP runs the §4.1 pair search from it.  frg1 (3 POs) takes MP's
  // auto-exhaustive branch-and-bound.  Pinning the reports' numbers to the
  // bit catches any change to the searches' cost reads, the mapper or the
  // simulator that would move a Table 1 row — and any change to what the
  // searches count.
  FlowOptions options;
  options.pi_prob = 0.5;
  options.sim.steps = 256;
  options.sim.warmup = 16;
  FlowSession session(generate_benchmark(paper_spec("x1")), options);

  const FlowReport ma = session.report(PhaseMode::kMinArea);
  EXPECT_EQ(ma.est_power, 0x1.2031950e4cecep+10);
  EXPECT_EQ(ma.sim_power, 0x1.c1d23fffffc62p+9);
  EXPECT_EQ(ma.cells, 501u);
  EXPECT_EQ(ma.area, 0x1.216cccccccccap+11);
  EXPECT_EQ(ma.critical_delay, 0x1.f466666666666p+6);
  expect_counters(ma.search, {14058, 0, 0, 0, 0, 0, 0.0});

  const FlowReport mp = session.report(PhaseMode::kMinPower);
  EXPECT_EQ(mp.est_power, 0x1.7ba031e480779p+9);
  EXPECT_EQ(mp.sim_power, 0x1.76a80962fc858p+9);
  EXPECT_EQ(mp.cells, 609u);
  EXPECT_EQ(mp.area, 0x1.433fffffffffep+11);
  EXPECT_EQ(mp.critical_delay, 0x1.1d5c28f5c28f5p+7);
  expect_counters(mp.search, {14492, 24, 507, 4707, 0, 0, 0.0});

  // A clock what-if on the warm session: MP is remapped, resized to 5 %
  // above MA's unconstrained delay and measured again.
  options.clock_period = 1.05 * ma.critical_delay;
  session.set_options(options);
  const FlowReport timed = session.report(PhaseMode::kMinPower);
  EXPECT_TRUE(timed.timing_met);
  EXPECT_EQ(timed.resize_moves, 2u);
  EXPECT_EQ(timed.cells, 609u);
  EXPECT_EQ(timed.area, 0x1.43dfffffffffep+11);
  EXPECT_EQ(timed.critical_delay, 0x1.ff2b020c49ba8p+6);
  EXPECT_EQ(timed.sim_power, 0x1.78059867c3db9p+9);
  EXPECT_EQ(timed.sim_breakdown.domino_block, 0x1.4d6a2c5f92a3p+8);
  EXPECT_EQ(timed.sim_breakdown.input_inverters, 0x1.e96ec28f5c29p+7);
  EXPECT_EQ(timed.sim_breakdown.output_inverters, 0x1.41ddddddddddep-1);
  EXPECT_EQ(timed.sim_breakdown.clock_load, 0x1.5a916872b0219p+7);

  FlowSession frg1(generate_benchmark(paper_spec("frg1")), options);
  const FlowReport exact = frg1.report(PhaseMode::kMinPower);
  EXPECT_EQ(exact.est_power, 0x1.f7b97250cccccp+7);
  EXPECT_EQ(exact.sim_power, 0x1.ceee999999a64p+7);
  EXPECT_EQ(exact.cells, 197u);
  EXPECT_EQ(exact.area, 0x1.a833333333335p+9);
  EXPECT_EQ(exact.critical_delay, 0x1.7accccccccccfp+6);
  expect_counters(exact.search, {5, 0, 0, 0, 6, 3, 0x1.a34e759b7f488p-2});
}

TEST(Flow, RawBlifStyleInputIsNormalized) {
  // A network with wide gates and internal inverters (not phase-ready) must
  // be normalized inside run_flow.
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 5; ++i) pis.push_back(net.add_pi('p' + std::to_string(i)));
  const NodeId wide = net.add_gate(NodeKind::kAnd, {pis[0], pis[1], pis[2]});
  net.add_po("f", net.add_or(net.add_not(wide), net.add_xor(pis[3], pis[4])));
  FlowOptions options = fast_options();
  const FlowReport report = run_flow(net, options);
  EXPECT_TRUE(report.equivalence_ok);
  EXPECT_GT(report.cells, 0u);
}

TEST(Flow, ClockLoadAccounting) {
  const Network net = generate_benchmark(small_spec(5));
  FlowOptions options = fast_options();
  options.count_clock_load = true;
  FlowSession session(net, options);
  const auto loaded = session.report(options.mode);
  options.count_clock_load = false;
  session.set_options(options);  // invalidates only the measurement stage
  const auto unloaded = session.report(options.mode);
  EXPECT_GT(loaded.sim_power, unloaded.sim_power);
  EXPECT_NEAR(loaded.sim_breakdown.domino_block,
              unloaded.sim_breakdown.domino_block, 1e-9);
  EXPECT_EQ(session.stats().map_runs, 1u);
  EXPECT_EQ(session.stats().measure_runs, 2u);
}

TEST(Flow, RandomEquivalentDetectsDifference) {
  Network a;
  const NodeId pa = a.add_pi("x");
  const NodeId pb = a.add_pi("y");
  a.add_po("f", a.add_and(pa, pb));
  Network b;
  const NodeId qa = b.add_pi("x");
  const NodeId qb = b.add_pi("y");
  b.add_po("f", b.add_or(qa, qb));
  EXPECT_FALSE(random_equivalent(a, b));
  EXPECT_TRUE(random_equivalent(a, a));
}

TEST(Report, TextTableAlignsAndCounts) {
  TextTable table;
  table.header({"a", "bb"});
  table.row({"ccc", "d"});
  table.row({"e", "ffff"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("ccc"), std::string::npos);
  EXPECT_NE(text.find("ffff"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.226, 1), "22.6");
  EXPECT_EQ(fmt_pct(-0.028, 1), "-2.8");
}

TEST(Flow, PaperSuiteSpecsWellFormed) {
  EXPECT_EQ(paper_suite().size(), 7u);
  const auto& frg1 = paper_spec("frg1");
  EXPECT_EQ(frg1.num_pis, 31u);
  EXPECT_EQ(frg1.num_pos, 3u);
  const auto& x3 = paper_spec("x3");
  EXPECT_EQ(x3.num_pis, 235u);
  EXPECT_EQ(x3.num_pos, 99u);
  EXPECT_THROW((void)paper_spec("nope"), std::runtime_error);
  // Generation is deterministic.
  BenchSpec spec = paper_spec("frg1");
  spec.gate_target = 60;
  const Network n1 = generate_benchmark(spec);
  const Network n2 = generate_benchmark(spec);
  EXPECT_EQ(n1.num_nodes(), n2.num_nodes());
  EXPECT_TRUE(random_equivalent(n1, n2));
}

}  // namespace
}  // namespace dominosyn
