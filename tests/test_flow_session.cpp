/// Tests for the staged FlowSession API (flow/session.hpp) and the batched
/// sweep frontend (flow/batch.hpp):
///  * staged reports are bit-identical to back-to-back run_flow calls,
///  * shared stage artifacts (synthesis, probabilities, EvalContext) are
///    built exactly once per circuit and min-power seeds from the cached
///    min-area stage,
///  * run_flow_batch returns identical reports for every thread count,
///  * SessionCache invalidates on a changed network / changed options and
///    bounds its working set (LRU).

#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "flow/batch.hpp"
#include "flow/session.hpp"

namespace dominosyn {
namespace {

BenchSpec session_spec(std::uint64_t seed, std::size_t pos = 6,
                       std::size_t latches = 0) {
  BenchSpec spec;
  spec.name = "sess" + std::to_string(seed) + "_" + std::to_string(pos);
  spec.num_pis = 10;
  spec.num_pos = pos;
  spec.num_latches = latches;
  spec.gate_target = 90;
  spec.seed = seed;
  return spec;
}

FlowOptions fast_options() {
  FlowOptions options;
  options.sim.steps = 400;
  options.sim.warmup = 8;
  return options;
}

/// Bit-identical comparison of every deterministic FlowReport field
/// (everything except wall-clock seconds).
void expect_reports_identical(const FlowReport& a, const FlowReport& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.pis, b.pis);
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.latches, b.latches);
  EXPECT_EQ(a.synth_gates, b.synth_gates);
  EXPECT_EQ(a.block_gates, b.block_gates);
  EXPECT_EQ(a.boundary_inverters, b.boundary_inverters);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.est_power, b.est_power);
  EXPECT_EQ(a.sim_power, b.sim_power);
  EXPECT_EQ(a.sim_breakdown.domino_block, b.sim_breakdown.domino_block);
  EXPECT_EQ(a.sim_breakdown.input_inverters, b.sim_breakdown.input_inverters);
  EXPECT_EQ(a.sim_breakdown.output_inverters, b.sim_breakdown.output_inverters);
  EXPECT_EQ(a.sim_breakdown.clock_load, b.sim_breakdown.clock_load);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.timing_met, b.timing_met);
  EXPECT_EQ(a.resize_moves, b.resize_moves);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.negative_outputs, b.negative_outputs);
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  EXPECT_EQ(a.used_exact_bdd, b.used_exact_bdd);
  EXPECT_EQ(a.equivalence_ok, b.equivalence_ok);
}

TEST(FlowSession, StagedReportsMatchMonolithicRunFlow) {
  // 12 POs > exhaustive_pos_limit, so kMinPower takes the MA-seeded §4.1
  // heuristic path — the one whose seeding the session dedupes.
  const Network net = generate_benchmark(session_spec(11, /*pos=*/12));
  FlowOptions options = fast_options();
  FlowSession session(net, options);
  for (const PhaseMode mode :
       {PhaseMode::kAllPositive, PhaseMode::kMinArea, PhaseMode::kMinPower,
        PhaseMode::kExhaustivePower}) {
    options.mode = mode;
    const FlowReport monolithic = run_flow(net, options);
    const FlowReport staged = session.report(mode);
    expect_reports_identical(staged, monolithic);
  }
}

TEST(FlowSession, SharedStagesBuildExactlyOnce) {
  const Network net = generate_benchmark(session_spec(12, /*pos=*/12));
  FlowSession session(net, fast_options());
  (void)session.report(PhaseMode::kMinArea);
  (void)session.report(PhaseMode::kMinPower);
  (void)session.report(PhaseMode::kExhaustivePower);

  const FlowSession::Stats& stats = session.stats();
  EXPECT_EQ(stats.synth_builds, 1u);
  EXPECT_EQ(stats.prob_builds, 1u);
  EXPECT_EQ(stats.context_builds, 1u);
  // MA, MP, exhaustive — and MP's min-area seed came from the cached MA
  // stage instead of a fourth search.
  EXPECT_EQ(stats.assign_searches, 3u);
  EXPECT_EQ(stats.map_runs, 3u);
  EXPECT_EQ(stats.measure_runs, 3u);

  // Re-reporting a cached mode does no new work.
  (void)session.report(PhaseMode::kMinArea);
  EXPECT_EQ(session.stats().assign_searches, 3u);
  EXPECT_EQ(session.stats().measure_runs, 3u);
}

TEST(FlowSession, MinPowerSeedsFromCachedMinArea) {
  const Network net = generate_benchmark(session_spec(13, /*pos=*/12));
  FlowOptions options = fast_options();

  // Asking for MP alone materializes exactly two searches: the min-area
  // seed (cached as the MA stage) and the min-power loop.
  FlowSession session(net, options);
  const FlowSession::AssignStage& mp = session.assign(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().assign_searches, 2u);

  // The cached MA stage is the very seed MP used, and the reported
  // evaluation count matches the monolithic flow (trials + seed evals).
  const FlowSession::AssignStage& ma = session.assign(PhaseMode::kMinArea);
  EXPECT_EQ(session.stats().assign_searches, 2u);
  options.mode = PhaseMode::kMinPower;
  const FlowReport monolithic = run_flow(net, options);
  EXPECT_EQ(mp.search.evaluations, monolithic.search.evaluations);
  EXPECT_GT(mp.search.evaluations, ma.search.evaluations);
}

TEST(FlowSession, SetOptionsInvalidatesOnlyAffectedStages) {
  const Network net = generate_benchmark(session_spec(14));
  FlowOptions options = fast_options();
  FlowSession session(net, options);
  (void)session.report(PhaseMode::kMinPower);

  // Simulation settings: only the measurement re-runs.
  options.sim.steps = 500;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().assign_searches, 1u);
  EXPECT_EQ(session.stats().map_runs, 1u);
  EXPECT_EQ(session.stats().measure_runs, 2u);

  // Power model: context + search + downstream, but not the probabilities.
  options.model.load_aware = false;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().prob_builds, 1u);
  EXPECT_EQ(session.stats().context_builds, 2u);
  EXPECT_EQ(session.stats().assign_searches, 2u);

  // PI probability: everything from the probabilities down.
  options.pi_prob = 0.7;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().synth_builds, 1u);
  EXPECT_EQ(session.stats().prob_builds, 2u);
  EXPECT_EQ(session.stats().context_builds, 3u);

  // Thread count: results are thread-count independent, so nothing is stale.
  options.num_threads = 4;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().prob_builds, 2u);
  EXPECT_EQ(session.stats().context_builds, 3u);
  EXPECT_EQ(session.stats().assign_searches, 3u);
}

TEST(FlowBatch, IdenticalReportsForEveryThreadCount) {
  const std::vector<BenchSpec> specs = {session_spec(21), session_spec(22, 8),
                                        session_spec(23, 5, /*latches=*/3)};
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  FlowOptions options = fast_options();
  std::vector<FlowJob> jobs;
  std::vector<FlowReport> sequential;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = options;
      job.options.mode = mode;
      jobs.push_back(job);
      sequential.push_back(run_flow(net, job.options));
    }
  }

  for (const unsigned threads : {1u, 2u, 5u, 0u}) {
    BatchOptions batch;
    batch.num_threads = threads;
    const std::vector<FlowReport> reports = run_flow_batch(jobs, batch);
    ASSERT_EQ(reports.size(), sequential.size()) << threads;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " job=" +
                   std::to_string(i));
      expect_reports_identical(reports[i], sequential[i]);
    }
  }
}

TEST(FlowBatch, SharesOneContextPerCircuitAcrossModes) {
  const std::vector<BenchSpec> specs = {session_spec(31), session_spec(32, 8)};
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = fast_options();
      job.options.mode = mode;
      jobs.push_back(job);
    }
  }

  SessionCache cache(8);
  BatchOptions batch;
  batch.num_threads = 2;
  batch.cache = &cache;
  (void)run_flow_batch(jobs, batch);

  // One lease per job: the first job of a circuit misses, every later one
  // lands on the hot session (2 modes per circuit).
  EXPECT_EQ(cache.misses(), specs.size());
  EXPECT_EQ(cache.hits(), specs.size());
  for (const BenchSpec& spec : specs) {
    const auto session = cache.peek(spec.name);
    ASSERT_NE(session, nullptr) << spec.name;
    EXPECT_EQ(session->stats().synth_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().prob_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().context_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().measure_runs, 2u) << spec.name;
  }

  // The service-frontend seed: a second batch over the same cache is served
  // entirely from the hot sessions — no stage is ever rebuilt.
  (void)run_flow_batch(jobs, batch);
  EXPECT_EQ(cache.misses(), specs.size());
  EXPECT_EQ(cache.hits(), jobs.size() + specs.size());
  for (const BenchSpec& spec : specs) {
    const auto session = cache.peek(spec.name);
    ASSERT_NE(session, nullptr) << spec.name;
    EXPECT_EQ(session->stats().synth_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().prob_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().measure_runs, 2u) << spec.name;
  }
}

TEST(FlowBatch, TinyCacheStillCorrectUnderEviction) {
  // An external capacity-1 cache with two interleaved circuits: entries are
  // evicted and rebuilt between jobs (the private-cache path would resize
  // instead).  Thrashing costs stage rebuilds, never exactness.
  const std::vector<BenchSpec> specs = {session_spec(61), session_spec(62, 8)};
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  std::vector<FlowReport> sequential;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = fast_options();
      job.options.mode = mode;
      jobs.push_back(job);
      sequential.push_back(run_flow(net, job.options));
    }
  }

  SessionCache tiny(1);
  BatchOptions batch;
  batch.num_threads = 2;
  batch.cache = &tiny;
  const std::vector<FlowReport> reports = run_flow_batch(jobs, batch);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("job=" + std::to_string(i));
    expect_reports_identical(reports[i], sequential[i]);
  }
}

TEST(FlowBatch, PrivateCacheNeverThrashesWithinOneBatch) {
  // More circuits than the default private-cache capacity: the batch sizes
  // its cache to the sweep, so every circuit's staged prefix is still built
  // exactly once (the old per-group frontend guaranteed this by holding
  // sessions; the serving path guarantees it by capacity).
  std::vector<BenchSpec> specs;
  for (std::uint64_t seed = 90; seed < 102; ++seed)
    specs.push_back(session_spec(seed));
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = fast_options();
      job.options.mode = mode;
      jobs.push_back(job);
    }
  }
  ASSERT_GT(specs.size(), BatchOptions{}.cache_capacity);

  SessionCache probe(specs.size());  // mirror of what the batch does inside
  BatchOptions batch;
  batch.num_threads = 2;
  batch.cache = &probe;
  (void)run_flow_batch(jobs, batch);
  EXPECT_EQ(probe.evictions(), 0u);
  for (const BenchSpec& spec : specs) {
    const auto session = probe.peek(spec.name);
    ASSERT_NE(session, nullptr) << spec.name;
    EXPECT_EQ(session->stats().synth_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().prob_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().context_builds, 1u) << spec.name;
  }
}

TEST(FlowBatch, RejectsNullNetworks) {
  FlowJob job;
  job.options = fast_options();
  EXPECT_THROW((void)run_flow_batch(std::span<const FlowJob>(&job, 1), {}),
               std::invalid_argument);
}

TEST(SessionCache, RevalidatesOnChangedNetworkAndOptions) {
  const Network net_a = generate_benchmark(session_spec(41));
  const Network net_b = generate_benchmark(session_spec(42));
  const FlowOptions options = fast_options();

  SessionCache cache(4);
  const auto first = cache.acquire("ckt", net_a, options);
  (void)first->report(PhaseMode::kMinArea);
  EXPECT_EQ(cache.misses(), 1u);

  // Same key, same network: the hot session with its artifacts is reused.
  const auto again = cache.acquire("ckt", net_a, options);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(again->stats().prob_builds, 1u);

  // Same key, changed options: same session, stale stages dropped lazily.
  FlowOptions warmer = options;
  warmer.pi_prob = 0.8;
  const auto reopt = cache.acquire("ckt", net_a, warmer);
  EXPECT_EQ(reopt.get(), first.get());
  (void)reopt->report(PhaseMode::kMinArea);
  EXPECT_EQ(reopt->stats().synth_builds, 1u);
  EXPECT_EQ(reopt->stats().prob_builds, 2u);

  // Same key, changed network: the session is replaced wholesale.
  const auto swapped = cache.acquire("ckt", net_b, options);
  EXPECT_NE(swapped.get(), first.get());
  EXPECT_EQ(cache.invalidations(), 1u);
}

/// Small sequential network for fingerprint-sensitivity checks.  The knobs
/// change exactly one aspect each, leaving everything else identical.
Network fingerprint_net(bool rename_po = false, bool rewire_latches = false,
                        bool or_gate = false) {
  Network net;
  net.set_name("fp");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId l0 = net.add_latch("l0");
  const NodeId l1 = net.add_latch("l1");
  const NodeId g = or_gate ? net.add_or(a, b) : net.add_and(a, b);
  const NodeId h = net.add_and(g, l0);
  net.set_latch_input(l0, rewire_latches ? h : g);
  net.set_latch_input(l1, rewire_latches ? g : h);
  net.add_po(rename_po ? "f_renamed" : "f", h);
  net.validate();
  return net;
}

TEST(NetworkFingerprint, StableAcrossIdenticalConstruction) {
  EXPECT_EQ(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net()));
}

TEST(NetworkFingerprint, SensitiveToPortRenames) {
  // Port names are part of a circuit's serving identity: a renamed PO must
  // not be served from the old key's cached stages.
  EXPECT_NE(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net(/*rename_po=*/true)));
}

TEST(NetworkFingerprint, SensitiveToLatchRewiring) {
  EXPECT_NE(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net(/*rename_po=*/false,
                                                /*rewire_latches=*/true)));
}

TEST(NetworkFingerprint, SensitiveToGateKindChanges) {
  EXPECT_NE(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net(/*rename_po=*/false,
                                                /*rewire_latches=*/false,
                                                /*or_gate=*/true)));
}

TEST(SessionCache, RevalidationRebuildsExactlyTheStaleStages) {
  const Network net = generate_benchmark(session_spec(71));
  FlowOptions options = fast_options();

  SessionCache cache(4);
  const auto session = cache.acquire("ckt", net, options);
  (void)session->report(PhaseMode::kMinPower);
  const FlowSession::Stats baseline = session->stats();

  // Changed sim settings: revalidation re-runs only the measurement.
  options.sim.steps = 512;
  const auto resim = cache.acquire("ckt", net, options);
  ASSERT_EQ(resim.get(), session.get());
  (void)resim->report(PhaseMode::kMinPower);
  EXPECT_EQ(resim->stats().assign_searches, baseline.assign_searches);
  EXPECT_EQ(resim->stats().map_runs, baseline.map_runs);
  EXPECT_EQ(resim->stats().measure_runs, baseline.measure_runs + 1);

  // A clock target: mapping + measurement rebuild, the search is kept.
  options.clock_period = 1e6;
  const auto reclock = cache.acquire("ckt", net, options);
  ASSERT_EQ(reclock.get(), session.get());
  (void)reclock->report(PhaseMode::kMinPower);
  EXPECT_EQ(reclock->stats().assign_searches, baseline.assign_searches);
  EXPECT_EQ(reclock->stats().map_runs, baseline.map_runs + 1);
  EXPECT_EQ(reclock->stats().measure_runs, baseline.measure_runs + 2);

  // A renamed port changes the fingerprint: the whole session is replaced
  // even though the logic is untouched.
  const auto renamed =
      cache.acquire("fpkey", fingerprint_net(), options);
  const auto replaced =
      cache.acquire("fpkey", fingerprint_net(/*rename_po=*/true), options);
  EXPECT_NE(replaced.get(), renamed.get());
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(SessionCache, BoundsItsWorkingSetLru) {
  const Network net_a = generate_benchmark(session_spec(51));
  const Network net_b = generate_benchmark(session_spec(52));
  const Network net_c = generate_benchmark(session_spec(53));
  const FlowOptions options = fast_options();

  SessionCache cache(2);
  (void)cache.acquire("a", net_a, options);
  (void)cache.acquire("b", net_b, options);
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  (void)cache.acquire("a", net_a, options);
  (void)cache.acquire("c", net_c, options);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("b"), nullptr);
  EXPECT_NE(cache.peek("c"), nullptr);
}

}  // namespace
}  // namespace dominosyn
