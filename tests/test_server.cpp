/// Tests for the dominod serving subsystem (src/server/):
///  * concurrent clients submitting the same circuit get bit-identical
///    reports to single-threaded run_flow, and provably share one session
///    (stage-build counters sum to a single staged pipeline),
///  * per-key single-flight: a blocked hot key does not stall distinct
///    circuits, and SessionCache::lease serializes same-key holders,
///  * admission: over-capacity requests are rejected cleanly, expired
///    deadlines are rejected without running, shutdown drains in-flight
///    work (and non-drain shutdown cancels queued work cleanly),
///  * the wire protocol parses/formats round-trip, and a UNIX-socket
///    daemon serves real clients end to end,
///  * a request's thread count is clamped to the hardware's,
///  * corpus submits share one immutable network per name, across threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "blif/blif.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/core.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/fault.hpp"

namespace dominosyn {
namespace {

BenchSpec server_spec(std::uint64_t seed, std::size_t pos = 6) {
  BenchSpec spec;
  spec.name = "srv" + std::to_string(seed) + "_" + std::to_string(pos);
  spec.num_pis = 10;
  spec.num_pos = pos;
  spec.gate_target = 90;
  spec.seed = seed;
  return spec;
}

FlowOptions fast_options(PhaseMode mode = PhaseMode::kMinPower) {
  FlowOptions options;
  options.mode = mode;
  options.sim.steps = 400;
  options.sim.warmup = 8;
  return options;
}

ServerRequest make_request(const Network& net, const FlowOptions& options,
                           std::string key = "") {
  ServerRequest request;
  request.circuit = std::move(key);
  request.network = std::make_shared<const Network>(net);
  request.options = options;
  return request;
}

/// Bit-identical comparison of every deterministic FlowReport field.
void expect_reports_identical(const FlowReport& a, const FlowReport& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.synth_gates, b.synth_gates);
  EXPECT_EQ(a.block_gates, b.block_gates);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.est_power, b.est_power);
  EXPECT_EQ(a.sim_power, b.sim_power);
  EXPECT_EQ(a.sim_breakdown.domino_block, b.sim_breakdown.domino_block);
  EXPECT_EQ(a.sim_breakdown.clock_load, b.sim_breakdown.clock_load);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.negative_outputs, b.negative_outputs);
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  EXPECT_EQ(a.search.commits, b.search.commits);
  EXPECT_EQ(a.search.commit_rescore_pairs, b.search.commit_rescore_pairs);
  EXPECT_EQ(a.search.avg_update_nodes, b.search.avg_update_nodes);
  // Branch-and-bound counters are timing-dependent across *runs*, but every
  // response served from one cached assign stage reports the same values.
  EXPECT_EQ(a.search.nodes_expanded, b.search.nodes_expanded);
  EXPECT_EQ(a.search.subtrees_pruned, b.search.subtrees_pruned);
  EXPECT_EQ(a.search.bound_tightness, b.search.bound_tightness);
  EXPECT_EQ(a.equivalence_ok, b.equivalence_ok);
}

void wait_until(const std::function<bool()>& done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "condition timeout";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerCore, ConcurrentSameCircuitSharesOneSession) {
  const Network net = generate_benchmark(server_spec(71, /*pos=*/8));
  const FlowReport ma_ref = run_flow(net, fast_options(PhaseMode::kMinArea));
  const FlowReport mp_ref = run_flow(net, fast_options(PhaseMode::kMinPower));

  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  ServerCore core(config);

  // 8 client threads hammer one circuit with alternating modes.
  constexpr std::size_t kClients = 8;
  std::vector<std::future<ServerResponse>> futures(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i)
      clients.emplace_back([&, i] {
        const PhaseMode mode =
            i % 2 == 0 ? PhaseMode::kMinArea : PhaseMode::kMinPower;
        futures[i] = core.submit(make_request(net, fast_options(mode)));
      });
    for (std::thread& client : clients) client.join();
  }

  FlowSession::Stats total;
  std::size_t cold = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    ServerResponse response = futures[i].get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    expect_reports_identical(response.report,
                             i % 2 == 0 ? ma_ref : mp_ref);
    total.synth_builds += response.telemetry.rebuilt.synth_builds;
    total.prob_builds += response.telemetry.rebuilt.prob_builds;
    total.context_builds += response.telemetry.rebuilt.context_builds;
    total.assign_searches += response.telemetry.rebuilt.assign_searches;
    total.map_runs += response.telemetry.rebuilt.map_runs;
    total.measure_runs += response.telemetry.rebuilt.measure_runs;
    cold += response.telemetry.cache_hit ? 0 : 1;
  }

  // All eight requests rode ONE session: the staged prefix was built once,
  // each mode's search/map/measure once (MP seeds off the cached MA stage).
  EXPECT_EQ(total.synth_builds, 1u);
  EXPECT_EQ(total.prob_builds, 1u);
  EXPECT_EQ(total.context_builds, 1u);
  EXPECT_EQ(total.assign_searches, 2u);
  EXPECT_EQ(total.map_runs, 2u);
  EXPECT_EQ(total.measure_runs, 2u);
  EXPECT_EQ(cold, 1u);

  const auto session = core.cache().peek(net.name());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->stats().synth_builds, 1u);
  EXPECT_EQ(session->stats().prob_builds, 1u);
  EXPECT_EQ(session->stats().context_builds, 1u);
  EXPECT_EQ(core.stats().completed, kClients);
}

TEST(ServerCore, StatsAggregateCommitPathTelemetry) {
  // A 12-PO circuit is above the auto-exhaustive threshold, so kMinPower
  // runs the §4.1 heuristic and its commit-path counters surface in the
  // report; server stats sum them over every kOk response (hot repeats
  // included — the fleet-level cost view counts served work per response).
  const Network net = generate_benchmark(server_spec(83, /*pos=*/12));
  ServerCore core(ServerConfig{});

  const ServerResponse cold =
      core.submit(make_request(net, fast_options(PhaseMode::kMinPower))).get();
  ASSERT_EQ(cold.status, ServerStatus::kOk) << cold.error_message;
  EXPECT_GT(cold.report.search.commits, 0u);
  EXPECT_GT(cold.report.search.commit_rescore_pairs, 0u);
  EXPECT_GT(cold.report.search.avg_update_nodes, 0u);

  const ServerResponse hot =
      core.submit(make_request(net, fast_options(PhaseMode::kMinPower))).get();
  ASSERT_EQ(hot.status, ServerStatus::kOk);
  expect_reports_identical(hot.report, cold.report);

  const ServerCore::Stats stats = core.stats();
  EXPECT_EQ(stats.search_commits, 2 * cold.report.search.commits);
  EXPECT_EQ(stats.commit_rescore_pairs,
            2 * cold.report.search.commit_rescore_pairs);
  EXPECT_EQ(stats.avg_update_nodes, 2 * cold.report.search.avg_update_nodes);
  EXPECT_EQ(stats.exhaustive_searches, 0u);  // heuristic path: no pruning run

  // A 6-PO circuit takes the auto-exhaustive branch-and-bound path; its
  // pruning telemetry aggregates the same way (hot repeat served from the
  // cached assign stage, so the counters double exactly).
  const Network small = generate_benchmark(server_spec(84, /*pos=*/6));
  const ServerResponse exact_cold =
      core.submit(make_request(small, fast_options(PhaseMode::kMinPower))).get();
  ASSERT_EQ(exact_cold.status, ServerStatus::kOk) << exact_cold.error_message;
  EXPECT_GT(exact_cold.report.search.nodes_expanded, 0u);
  EXPECT_GT(exact_cold.report.search.bound_tightness, 0.0);
  const ServerResponse exact_hot =
      core.submit(make_request(small, fast_options(PhaseMode::kMinPower))).get();
  ASSERT_EQ(exact_hot.status, ServerStatus::kOk);
  expect_reports_identical(exact_hot.report, exact_cold.report);

  const ServerCore::Stats after = core.stats();
  EXPECT_EQ(after.exhaustive_searches, 2u);
  EXPECT_EQ(after.search_nodes_expanded,
            2 * exact_cold.report.search.nodes_expanded);
  EXPECT_EQ(after.search_subtrees_pruned,
            2 * exact_cold.report.search.subtrees_pruned);
  EXPECT_EQ(after.bound_tightness_sum,
            2 * exact_cold.report.search.bound_tightness);

  // The new counters ride the stats wire format.
  const std::string stats_json = protocol::format_stats(after, core.cache());
  EXPECT_EQ(protocol::find_number(stats_json, "exhaustive_searches"), 2.0);
  EXPECT_EQ(protocol::find_number(stats_json, "search_nodes_expanded"),
            static_cast<double>(after.search_nodes_expanded));
  EXPECT_EQ(protocol::find_number(stats_json, "bound_tightness_sum"),
            after.bound_tightness_sum);
  core.shutdown();
}

TEST(ServerCore, BlockedHotKeyDoesNotStallOtherCircuits) {
  const Network hot = generate_benchmark(server_spec(72));
  const Network other = generate_benchmark(server_spec(73, /*pos=*/5));

  ServerConfig config;
  config.num_workers = 2;
  ServerCore core(config);

  // Park the hot circuit's key behind an externally held lease.
  SessionCache::Lease hold =
      core.cache().lease(hot.name(), hot, fast_options());
  auto blocked = core.submit(make_request(hot, fast_options()));
  wait_until([&] { return core.stats().running_now >= 1; });

  // The other circuit flows straight through the second worker.
  auto free_flowing = core.submit(make_request(other, fast_options()));
  ASSERT_EQ(free_flowing.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(free_flowing.get().status, ServerStatus::kOk);
  EXPECT_EQ(blocked.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  hold.release();
  EXPECT_EQ(blocked.get().status, ServerStatus::kOk);
}

TEST(ServerCore, AdmissionRejectsOverCapacityCleanly) {
  const Network net = generate_benchmark(server_spec(74));
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  ServerCore core(config);

  SessionCache::Lease hold = core.cache().lease(net.name(), net, fast_options());
  auto running = core.submit(make_request(net, fast_options()));
  // Wait until the worker picked it up so it no longer occupies the queue.
  wait_until([&] { return core.stats().running_now == 1; });

  auto queued1 = core.submit(make_request(net, fast_options()));
  auto queued2 = core.submit(make_request(net, fast_options()));
  auto rejected = core.submit(make_request(net, fast_options()));

  // The over-capacity submit resolves immediately, without running anything.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ServerResponse over = rejected.get();
  EXPECT_EQ(over.status, ServerStatus::kRejectedQueueFull);
  EXPECT_FALSE(over.error_message.empty());
  EXPECT_EQ(core.stats().rejected_queue_full, 1u);

  hold.release();
  EXPECT_EQ(running.get().status, ServerStatus::kOk);
  EXPECT_EQ(queued1.get().status, ServerStatus::kOk);
  EXPECT_EQ(queued2.get().status, ServerStatus::kOk);
  EXPECT_EQ(core.stats().completed, 3u);
  EXPECT_EQ(core.stats().accepted, 3u);
  EXPECT_EQ(core.stats().submitted, 4u);
}

TEST(ServerCore, ExpiredDeadlineRejectedWithoutRunning) {
  const Network net = generate_benchmark(server_spec(75));
  ServerCore core(ServerConfig{});

  ServerRequest late = make_request(net, fast_options());
  late.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  ServerResponse response = core.submit(std::move(late)).get();
  EXPECT_EQ(response.status, ServerStatus::kRejectedDeadline);
  EXPECT_EQ(core.stats().rejected_deadline, 1u);
  // Nothing was built: the request never reached the cache.
  EXPECT_EQ(core.cache().size(), 0u);
  EXPECT_EQ(core.cache().misses(), 0u);

  // A generous deadline passes untouched.
  ServerRequest fine = make_request(net, fast_options());
  fine.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  EXPECT_EQ(core.submit(std::move(fine)).get().status, ServerStatus::kOk);
}

TEST(ServerCore, ShutdownDrainsInFlightWork) {
  const Network net_a = generate_benchmark(server_spec(76));
  const Network net_b = generate_benchmark(server_spec(77, /*pos=*/5));

  ServerConfig config;
  config.num_workers = 2;
  ServerCore core(config);
  std::vector<std::future<ServerResponse>> futures;
  for (int round = 0; round < 2; ++round)
    for (const Network* net : {&net_a, &net_b})
      futures.push_back(core.submit(make_request(*net, fast_options())));

  core.shutdown(/*drain=*/true);
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, ServerStatus::kOk);
  EXPECT_EQ(core.stats().completed, futures.size());

  // Post-shutdown submissions resolve immediately with a clean rejection.
  ServerResponse after = core.submit(make_request(net_a, fast_options())).get();
  EXPECT_EQ(after.status, ServerStatus::kRejectedShutdown);
}

TEST(ServerCore, NonDrainShutdownCancelsQueuedWork) {
  const Network net = generate_benchmark(server_spec(78));
  ServerConfig config;
  config.num_workers = 1;
  ServerCore core(config);

  SessionCache::Lease hold = core.cache().lease(net.name(), net, fast_options());
  auto running = core.submit(make_request(net, fast_options()));
  wait_until([&] { return core.stats().running_now == 1; });
  auto queued = core.submit(make_request(net, fast_options()));

  std::thread stopper([&] { core.shutdown(/*drain=*/false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hold.release();
  stopper.join();

  // Running work always finishes; queued work is rejected, not dropped.
  EXPECT_EQ(running.get().status, ServerStatus::kOk);
  EXPECT_EQ(queued.get().status, ServerStatus::kRejectedShutdown);
}

TEST(ServerCore, FlowErrorsPropagateWithOriginalType) {
  // 25 POs exceed even the explicit-exhaustive cap
  // (max(exhaustive_pos_limit, kDefaultPrunedExhaustiveLimit) = 24): the
  // search refuses up front, before any work.
  const Network net = generate_benchmark(server_spec(79, /*pos=*/25));
  FlowOptions options = fast_options(PhaseMode::kExhaustivePower);
  options.exhaustive_pos_limit = 10;

  ServerCore core(ServerConfig{});
  ServerResponse response = core.submit(make_request(net, options)).get();
  ASSERT_EQ(response.status, ServerStatus::kError);
  EXPECT_FALSE(response.error_message.empty());
  ASSERT_NE(response.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(response.error), ExhaustiveLimitError);
  EXPECT_EQ(core.stats().errors, 1u);

  // And through the batch frontend, the original exception type surfaces.
  FlowJob job;
  job.network = &net;
  job.options = options;
  EXPECT_THROW((void)run_flow_batch(std::span<const FlowJob>(&job, 1), {}),
               ExhaustiveLimitError);
}

TEST(ServerCore, NullNetworkThrows) {
  ServerCore core(ServerConfig{});
  ServerRequest request;
  EXPECT_THROW((void)core.submit(std::move(request)), std::invalid_argument);
}

TEST(SessionCacheLease, SerializesSameKeyHolders) {
  const Network net = generate_benchmark(server_spec(80));
  SessionCache cache(4);

  std::vector<int> events;
  std::atomic<bool> held{false};
  std::thread first([&] {
    SessionCache::Lease lease = cache.lease("k", net, fast_options());
    events.push_back(1);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    events.push_back(2);
  });
  while (!held.load()) std::this_thread::yield();

  // Blocks until the first holder releases; the event order proves it.
  SessionCache::Lease second = cache.lease("k", net, fast_options());
  events.push_back(3);
  first.join();
  EXPECT_EQ(events, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SessionCacheLease, DistinctKeysDoNotBlock) {
  const Network net_a = generate_benchmark(server_spec(81));
  const Network net_b = generate_benchmark(server_spec(82, /*pos=*/5));
  SessionCache cache(4);

  SessionCache::Lease hold = cache.lease("a", net_a, fast_options());
  auto other = std::async(std::launch::async, [&] {
    SessionCache::Lease lease = cache.lease("b", net_b, fast_options());
    return lease.session().circuit();
  });
  ASSERT_EQ(other.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(other.get(), net_b.name());
}

TEST(SessionCacheLease, PinsEntryAgainstEviction) {
  const Network net_a = generate_benchmark(server_spec(83));
  const Network net_b = generate_benchmark(server_spec(84, /*pos=*/5));
  const Network net_c = generate_benchmark(server_spec(85, /*pos=*/7));
  SessionCache cache(1);

  SessionCache::Lease hold = cache.lease("a", net_a, fast_options());
  // Over capacity, but "a" is pinned by the held lease: the cache bulges
  // instead of evicting it, so a concurrent same-key lease still lands on
  // the same slot.
  SessionCache::Lease lease_b = cache.lease("b", net_b, fast_options());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_NE(cache.peek("a"), nullptr);

  hold.release();
  lease_b.release();
  // Next lease shrinks the cache back within capacity.
  SessionCache::Lease lease_c = cache.lease("c", net_c, fast_options());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("b"), nullptr);
  EXPECT_NE(cache.peek("c"), nullptr);
}

TEST(Protocol, ParsesSubmitWithCorpus) {
  std::istringstream in("submit corpus=frg1 mode=ma threads=2 sim_steps=128\n");
  const auto command = protocol::read_command(in);
  ASSERT_TRUE(command.has_value());
  ASSERT_EQ(command->kind, protocol::CommandKind::kSubmit);
  ASSERT_NE(command->request.network, nullptr);
  EXPECT_EQ(command->request.network->name(), "frg1");
  EXPECT_EQ(command->request.options.mode, PhaseMode::kMinArea);
  EXPECT_EQ(command->request.options.num_threads, 2u);
  EXPECT_EQ(command->request.options.sim.steps, 128u);
  EXPECT_FALSE(command->request.deadline.has_value());
}

TEST(Protocol, ParsesPercentEncodedCorpusAndCircuitNames) {
  // Three paper circuits have a space in their name ("Industry 1"); the
  // submit line carries names percent-encoded.
  std::istringstream in("submit corpus=Industry%201 circuit=my%20key mode=ma\n");
  const auto command = protocol::read_command(in);
  ASSERT_TRUE(command.has_value());
  ASSERT_EQ(command->kind, protocol::CommandKind::kSubmit);
  ASSERT_NE(command->request.network, nullptr);
  EXPECT_EQ(command->request.network->name(), "Industry 1");
  EXPECT_EQ(command->request.circuit, "my key");
}

TEST(Protocol, CorpusSubmitsShareOneImmutableNetwork) {
  const auto parse_network =
      [](const std::string& corpus) -> std::shared_ptr<const Network> {
    std::istringstream in("submit corpus=" + corpus + " mode=mp\n");
    const auto command = protocol::read_command(in);
    return command ? command->request.network : nullptr;
  };
  const std::shared_ptr<const Network> first = parse_network("x1");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(parse_network("x1"), first);
  EXPECT_EQ(network_fingerprint(*first),
            network_fingerprint(generate_benchmark(paper_spec("x1"))));

  try {
    (void)parse_network("nope");
    ADD_FAILURE() << "an unknown corpus name parsed";
  } catch (const protocol::ProtocolError& error) {
    EXPECT_EQ(std::string(error.what()).rfind("corpus lookup failed: ", 0), 0u)
        << error.what();
  }

  // Concurrent parses share one network per name: 4 threads x 25 parses.
  struct Seen {
    std::set<const Network*> x1, x3;
  };
  std::vector<Seen> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 25; ++i) {
        const bool want_x3 = (i + t) % 2 == 0;
        (want_x3 ? seen[t].x3 : seen[t].x1)
            .insert(parse_network(want_x3 ? "x3" : "x1").get());
      }
    });
  for (std::thread& thread : threads) thread.join();
  std::set<const Network*> x1;
  std::set<const Network*> x3;
  for (const Seen& one : seen) {
    x1.insert(one.x1.begin(), one.x1.end());
    x3.insert(one.x3.begin(), one.x3.end());
  }
  EXPECT_EQ(x1, std::set<const Network*>{first.get()});
  ASSERT_EQ(x3.size(), 1u);
  EXPECT_NE(*x3.begin(), nullptr);
}

TEST(Protocol, ParsesSubmitWithInlineBlif) {
  std::istringstream in(
      "submit blif=inline mode=mp deadline_ms=60000\n"
      ".model proto_tiny\n"
      ".inputs a b\n"
      ".outputs f\n"
      ".names a b f\n"
      "11 1\n"
      ".end\n"
      "ping\n");
  auto command = protocol::read_command(in);
  ASSERT_TRUE(command.has_value());
  ASSERT_EQ(command->kind, protocol::CommandKind::kSubmit);
  ASSERT_NE(command->request.network, nullptr);
  EXPECT_EQ(command->request.network->name(), "proto_tiny");
  EXPECT_EQ(command->request.network->num_pis(), 2u);
  EXPECT_TRUE(command->request.deadline.has_value());

  // The parser consumed exactly the BLIF body: the next command survives.
  command = protocol::read_command(in);
  ASSERT_TRUE(command.has_value());
  EXPECT_EQ(command->kind, protocol::CommandKind::kPing);
  EXPECT_FALSE(protocol::read_command(in).has_value());
}

TEST(Protocol, BadInlineSubmitHeaderStillConsumesBody) {
  // A header error must not leave the BLIF body in the stream — otherwise
  // the connection desynchronizes and body lines get parsed as commands.
  // A bad value and a token with no '=' both take that path.
  for (const std::string header :
       {"submit blif=inline mode=bogus\n", "submit blif=inline junk\n"}) {
    std::istringstream in(
        header + ".model t\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n" +
        "ping\n");
    EXPECT_THROW((void)protocol::read_command(in), protocol::ProtocolError)
        << header;
    const auto next = protocol::read_command(in);
    ASSERT_TRUE(next.has_value()) << header;
    EXPECT_EQ(next->kind, protocol::CommandKind::kPing) << header;
    EXPECT_FALSE(protocol::read_command(in).has_value()) << header;
  }
}

TEST(Protocol, RejectsMalformedRequests) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return protocol::read_command(in);
  };
  EXPECT_THROW((void)parse("explode\n"), protocol::ProtocolError);
  EXPECT_THROW((void)parse("submit\n"), protocol::ProtocolError);
  EXPECT_THROW((void)parse("submit corpus=frg1 blif=inline\n"),
               protocol::ProtocolError);
  EXPECT_THROW((void)parse("submit corpus=frg1 mode=fastest\n"),
               protocol::ProtocolError);
  EXPECT_THROW((void)parse("submit corpus=frg1 threads=a\n"),
               protocol::ProtocolError);
  EXPECT_THROW((void)parse("submit blif=inline\n.model t\n"),
               protocol::ProtocolError);  // body without .end
  EXPECT_THROW((void)parse("ping pong\n"), protocol::ProtocolError);
  // Blank lines are keep-alives, not errors.
  EXPECT_FALSE(parse("\n\n").has_value());
}

TEST(Protocol, RejectsSimStepsNotAboveWarmup) {
  // The simulator refuses steps <= warmup; the header check refuses it
  // before the request reaches synthesis, search and mapping.
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return protocol::read_command(in);
  };
  EXPECT_THROW((void)parse("submit corpus=frg1 sim_steps=10\n"),
               protocol::ProtocolError);  // default warmup is 16
  EXPECT_THROW((void)parse("submit corpus=frg1 sim_steps=16 sim_warmup=16\n"),
               protocol::ProtocolError);
  const auto command = parse("submit corpus=frg1 sim_warmup=3 sim_steps=4\n");
  ASSERT_TRUE(command.has_value());
  EXPECT_EQ(command->request.options.sim.steps, 4u);
  EXPECT_EQ(command->request.options.sim.warmup, 3u);
}

TEST(Protocol, RejectsDistFrontierAboveLimit) {
  // A job's 2^N units are built up front: the header refuses a depth past
  // dist::kMaxFrontierDepth, naming the limit, instead of letting one
  // request exhaust the daemon's memory.
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return protocol::read_command(in);
  };
  const auto command = parse("submit corpus=frg1 dist=1 dist_frontier=16\n");
  ASSERT_TRUE(command.has_value());
  EXPECT_EQ(command->request.options.dist.frontier_depth, 16u);
  try {
    (void)parse("submit corpus=frg1 dist=1 dist_frontier=17\n");
    ADD_FAILURE() << "dist_frontier=17 parsed";
  } catch (const protocol::ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("[0, 16]"), std::string::npos)
        << error.what();
  }
}

TEST(Protocol, ResponseRoundTripsThroughScanners) {
  ServerResponse response;
  response.status = ServerStatus::kOk;
  response.report.circuit = "quote\"me";
  response.report.mode = PhaseMode::kMinPower;
  response.report.cells = 42;
  response.report.sim_power = 123.4567890123456789;
  response.report.assignment = {Phase::kPositive, Phase::kNegative};
  response.report.search.commits = 7;
  response.report.search.commit_rescore_pairs = 91;
  response.report.search.avg_update_nodes = 1234;
  response.report.search.nodes_expanded = 555;
  response.report.search.subtrees_pruned = 44;
  response.report.search.bound_tightness = 0.9375;
  response.telemetry.cache_hit = true;
  response.telemetry.rebuilt.assign_searches = 2;
  response.telemetry.queue_seconds = 0.25;

  const std::string json = protocol::format_response(response);
  EXPECT_EQ(protocol::find_bool(json, "ok"), true);
  EXPECT_EQ(protocol::find_string(json, "status"), "ok");
  EXPECT_EQ(protocol::find_string(json, "circuit"), "quote\"me");
  EXPECT_EQ(protocol::find_string(json, "mode"), "min-power");
  EXPECT_EQ(protocol::find_string(json, "assignment"), "+-");
  EXPECT_EQ(protocol::find_number(json, "cells"), 42.0);
  // Shortest-round-trip doubles: the parsed value is bit-identical.
  EXPECT_EQ(protocol::find_number(json, "sim_power"),
            response.report.sim_power);
  EXPECT_EQ(protocol::find_bool(json, "cache_hit"), true);
  EXPECT_EQ(protocol::find_number(json, "assign"), 2.0);
  EXPECT_EQ(protocol::find_number(json, "search_commits"), 7.0);
  EXPECT_EQ(protocol::find_number(json, "commit_rescore_pairs"), 91.0);
  EXPECT_EQ(protocol::find_number(json, "avg_update_nodes"), 1234.0);
  EXPECT_EQ(protocol::find_number(json, "search_nodes_expanded"), 555.0);
  EXPECT_EQ(protocol::find_number(json, "search_subtrees_pruned"), 44.0);
  // 0.9375 is dyadic, so the round trip is exact.
  EXPECT_EQ(protocol::find_number(json, "search_bound_tightness"), 0.9375);

  ServerResponse rejected;
  rejected.status = ServerStatus::kRejectedQueueFull;
  rejected.error_message = "admission queue at capacity (4)";
  const std::string rejection = protocol::format_response(rejected);
  EXPECT_EQ(protocol::find_bool(rejection, "ok"), false);
  EXPECT_EQ(protocol::find_string(rejection, "status"), "rejected_queue_full");
  EXPECT_EQ(protocol::find_string(rejection, "error"),
            "admission queue at capacity (4)");

  // Control bytes travel as \u00XX escapes and decode back to the byte;
  // other escaped code points decode to UTF-8.
  rejected.error_message = std::string("a\x01" "b");
  EXPECT_EQ(protocol::find_string(protocol::format_response(rejected), "error"),
            rejected.error_message);
  EXPECT_EQ(protocol::find_string("{\"k\":\"\\u00e9\"}", "k"), "\xc3\xa9");
  EXPECT_EQ(protocol::find_string("{\"k\":\"\\u00\"}", "k"), std::nullopt);
}

TEST(Transport, UnixSocketServesRealClients) {
  const std::string blif_text =
      ".model sock_tiny\n"
      ".inputs a b c\n"
      ".outputs f g\n"
      ".names a b f\n11 1\n"
      ".names b c g\n00 1\n"
      ".end\n";
  const Network net = blif::read_string(blif_text);
  // Mirror exactly what the wire command sets: defaults + mode + sim_steps.
  FlowOptions options;
  options.mode = PhaseMode::kMinArea;
  options.sim.steps = 128;
  const FlowReport reference = run_flow(net, options);

  ServerConfig config;
  config.num_workers = 2;
  ServerCore core(config);
  TransportConfig transport;
  transport.unix_path = testing::TempDir() + "dominod_test.sock";
  SocketServer server(core, transport);

  Client client = Client::connect_unix(transport.unix_path);
  EXPECT_TRUE(client.ping());

  const std::string command = "submit blif=inline mode=ma sim_steps=128";
  const Client::SubmitSummary cold = client.submit(command, blif_text);
  ASSERT_TRUE(cold.ok) << cold.raw;
  EXPECT_EQ(cold.circuit, "sock_tiny");
  EXPECT_EQ(cold.mode, "min-area");
  EXPECT_EQ(cold.cells, reference.cells);
  EXPECT_EQ(cold.sim_power, reference.sim_power);  // bit-identical over the wire
  EXPECT_EQ(cold.est_power, reference.est_power);
  EXPECT_FALSE(cold.cache_hit);

  // A second client hits the hot session.
  Client second = Client::connect_unix(transport.unix_path);
  const Client::SubmitSummary hot = second.submit(command, blif_text);
  ASSERT_TRUE(hot.ok) << hot.raw;
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.sim_power, reference.sim_power);

  // Malformed input answers with an error line and keeps the connection.
  const std::string bad = client.request("explode");
  EXPECT_EQ(protocol::find_bool(bad, "ok"), false);
  EXPECT_TRUE(client.ping());

  const std::string stats = client.request("stats");
  EXPECT_EQ(protocol::find_bool(stats, "ok"), true);
  EXPECT_EQ(protocol::find_number(stats, "completed"), 2.0);
  EXPECT_EQ(protocol::find_number(stats, "hits"), 1.0);
  EXPECT_EQ(protocol::find_number(stats, "misses"), 1.0);

  server.stop();
  core.shutdown();
  EXPECT_EQ(core.stats().completed, 2u);
}

TEST(Transport, TcpLoopbackRoundTrip) {
  ServerCore core(ServerConfig{});
  TransportConfig transport;  // ephemeral 127.0.0.1 port
  SocketServer server(core, transport);
  ASSERT_NE(server.port(), 0);

  Client client = Client::connect_tcp("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());
  const std::string stats = client.request("stats");
  EXPECT_EQ(protocol::find_bool(stats, "ok"), true);
  // The distributed-fabric counters ride the stats line from day one.
  EXPECT_EQ(protocol::find_number(stats, "units_issued"), 0.0);
  EXPECT_EQ(protocol::find_number(stats, "units_stolen"), 0.0);
  EXPECT_EQ(protocol::find_number(stats, "units_reissued"), 0.0);
  EXPECT_EQ(protocol::find_number(stats, "incumbent_broadcasts"), 0.0);
}

TEST(ServerCore, StatsSnapshotIsCoherentUnderConcurrentSubmits) {
  // Regression guard for torn stats reads: stats() must take one coherent
  // snapshot, so no probe — however unluckily timed against the submit /
  // complete paths — can observe completed > accepted, accepted > submitted,
  // or an internally inconsistent latency histogram.  TSan gates the races.
  const Network net = generate_benchmark(server_spec(90, /*pos=*/4));
  ServerConfig config;
  config.num_workers = 2;
  ServerCore core(config);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> probes{0};
  std::thread prober([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServerCore::Stats stats = core.stats();
      const std::size_t resolved = stats.completed + stats.errors +
                                   stats.rejected_queue_full +
                                   stats.rejected_deadline +
                                   stats.rejected_shutdown;
      EXPECT_LE(stats.accepted, stats.submitted);
      EXPECT_LE(stats.completed, stats.accepted);
      EXPECT_LE(resolved, stats.submitted);
      // Latency histograms: one entry per started (queue) / finished
      // (service) request, each internally consistent.
      std::uint64_t queue_total = 0, service_total = 0;
      for (std::size_t i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
        queue_total += stats.queue_us.buckets[i];
        service_total += stats.service_us.buckets[i];
      }
      EXPECT_EQ(queue_total, stats.queue_us.count);
      EXPECT_EQ(service_total, stats.service_us.count);
      // No cross-histogram ordering asserts: the two histograms are
      // snapshotted sequentially outside the counter mutex, so requests
      // finishing between the two reads legitimately skew their counts.
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 25;  // hot after the first: ~µs each
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kPerClient; ++i)
        EXPECT_EQ(core.submit(make_request(net, fast_options())).get().status,
                  ServerStatus::kOk);
    });
  for (std::thread& client : clients) client.join();
  stop.store(true, std::memory_order_relaxed);
  prober.join();

  EXPECT_GT(probes.load(), 0u);
  const ServerCore::Stats final_stats = core.stats();
  EXPECT_EQ(final_stats.completed, kClients * kPerClient);
  EXPECT_EQ(final_stats.queue_us.count, kClients * kPerClient);
  EXPECT_EQ(final_stats.service_us.count, kClients * kPerClient);
  // Quantiles are monotone.  A cache hit can finish in under 1 µs, so the
  // lowest quantile may read 0.
  EXPECT_GE(final_stats.service_us.quantile(0.99),
            final_stats.service_us.quantile(0.0));
}

TEST(Protocol, StatsLineCarriesLatencyHistograms) {
  ServerCore core(ServerConfig{});
  const Network net = generate_benchmark(server_spec(91, /*pos=*/4));
  ASSERT_EQ(core.submit(make_request(net, fast_options())).get().status,
            ServerStatus::kOk);

  const std::string json = protocol::format_stats(core.stats(), core.cache());
  // The hist section rides the same one-line JSON: per-histogram count/sum,
  // precomputed p50/p95/p99, and the sparse [bucket, count] pairs.
  EXPECT_NE(json.find("\"hist\":{"), std::string::npos);
  EXPECT_NE(json.find("\"queue_us\":{"), std::string::npos);
  EXPECT_NE(json.find("\"service_us\":{"), std::string::npos);
  EXPECT_EQ(protocol::find_number(json, "count"), 1.0);
  const ServerCore::Stats stats = core.stats();
  EXPECT_EQ(stats.queue_us.count, 1u);
  EXPECT_EQ(stats.service_us.count, 1u);
}

TEST(ServerCore, ProbBuildsCountedByMethod) {
  // apex7's BDDs fit the work budget, x3's do not: metrics alone tells
  // whether an answer used approximate probabilities.  Only requests that
  // rebuild the probability stage count.
  ServerCore core(ServerConfig{});
  const FlowOptions options = fast_options(PhaseMode::kAllPositive);
  const Network apex7 = generate_benchmark(paper_spec("apex7"));
  const Network x3 = generate_benchmark(paper_spec("x3"));
  for (const Network* net : {&apex7, &apex7, &x3}) {
    const ServerResponse response = core.submit(make_request(*net, options)).get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    EXPECT_EQ(response.report.used_exact_bdd, net == &apex7);
  }

  const std::string text = core.prometheus_text();
  EXPECT_NE(text.find("# TYPE dominosyn_prob_builds_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_prob_builds_total{method=\"exact\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dominosyn_prob_builds_total{method=\"approx\"} 1\n"),
            std::string::npos)
      << text;
}

/// prometheus_text() less the families whose values depend on timing or on
/// the whole process: the two latency histograms, and the process-global
/// fault tallies and span counts.
std::string deterministic_metrics(const ServerCore& core) {
  std::istringstream lines(core.prometheus_text());
  std::string out;
  std::string line;
  while (std::getline(lines, line)) {
    bool keep = true;
    for (const char* family :
         {"dominosyn_request_queue_us", "dominosyn_request_service_us",
          "dominosyn_faults_injected_total", "dominosyn_spans_total"})
      keep = keep && line.find(family) == std::string::npos;
    if (keep) out += line + '\n';
  }
  return out;
}

constexpr std::string_view kPinnedMetrics = R"metrics(# HELP dominosyn_avg_update_nodes_total Summed per-report average update-node counts
# TYPE dominosyn_avg_update_nodes_total counter
dominosyn_avg_update_nodes_total 136
# HELP dominosyn_bound_tightness_sum Summed bound-tightness ratios (divide by exhaustive searches for the fleet average)
# TYPE dominosyn_bound_tightness_sum counter
dominosyn_bound_tightness_sum 0.53683686223650673
# HELP dominosyn_commit_rescore_pairs_total Pairs rescored by the incremental commit path
# TYPE dominosyn_commit_rescore_pairs_total counter
dominosyn_commit_rescore_pairs_total 30
# HELP dominosyn_exhaustive_searches_total Responses answered by the pruned exact search
# TYPE dominosyn_exhaustive_searches_total counter
dominosyn_exhaustive_searches_total 1
# HELP dominosyn_prob_builds_total Signal-probability builds by method: exact BDDs within the work budget, or the approximate fallback
# TYPE dominosyn_prob_builds_total counter
dominosyn_prob_builds_total{method="approx"} 0
dominosyn_prob_builds_total{method="exact"} 2
# HELP dominosyn_requests_accepted_total Requests past admission control
# TYPE dominosyn_requests_accepted_total counter
dominosyn_requests_accepted_total 3
# HELP dominosyn_requests_completed_total Requests served with status ok
# TYPE dominosyn_requests_completed_total counter
dominosyn_requests_completed_total 2
# HELP dominosyn_requests_error_total Requests whose flow threw
# TYPE dominosyn_requests_error_total counter
dominosyn_requests_error_total 0
# HELP dominosyn_requests_queued Admitted, not yet started
# TYPE dominosyn_requests_queued gauge
dominosyn_requests_queued 0
# HELP dominosyn_requests_reattached_total Retried submits answered by attaching to the in-flight/finished job of the same rid
# TYPE dominosyn_requests_reattached_total counter
dominosyn_requests_reattached_total 0
# HELP dominosyn_requests_rejected_deadline_total Rejections: deadline expired while queued
# TYPE dominosyn_requests_rejected_deadline_total counter
dominosyn_requests_rejected_deadline_total 1
# HELP dominosyn_requests_rejected_queue_full_total Rejections: admission queue at capacity
# TYPE dominosyn_requests_rejected_queue_full_total counter
dominosyn_requests_rejected_queue_full_total 0
# HELP dominosyn_requests_rejected_shutdown_total Rejections: submitted after or cancelled by shutdown
# TYPE dominosyn_requests_rejected_shutdown_total counter
dominosyn_requests_rejected_shutdown_total 0
# HELP dominosyn_requests_retried_total Submits that arrived with a nonzero retry= attempt (client re-submissions)
# TYPE dominosyn_requests_retried_total counter
dominosyn_requests_retried_total 0
# HELP dominosyn_requests_running Currently executing
# TYPE dominosyn_requests_running gauge
dominosyn_requests_running 0
# HELP dominosyn_requests_submitted_total Requests ever submitted
# TYPE dominosyn_requests_submitted_total counter
dominosyn_requests_submitted_total 3
# HELP dominosyn_responses_degraded_total Responses served under overload brownout (auto-exhaustive disabled)
# TYPE dominosyn_responses_degraded_total counter
dominosyn_responses_degraded_total 0
# HELP dominosyn_search_commits_total Min-power commits across ok responses
# TYPE dominosyn_search_commits_total counter
dominosyn_search_commits_total 3
# HELP dominosyn_search_nodes_expanded_total Branch-and-bound nodes expanded
# TYPE dominosyn_search_nodes_expanded_total counter
dominosyn_search_nodes_expanded_total 30
# HELP dominosyn_search_subtrees_pruned_total Branch-and-bound subtrees pruned
# TYPE dominosyn_search_subtrees_pruned_total counter
dominosyn_search_subtrees_pruned_total 10
# TYPE dominosyn_fabric_units_issued_total counter
dominosyn_fabric_units_issued_total 0
# TYPE dominosyn_fabric_units_stolen_total counter
dominosyn_fabric_units_stolen_total 0
# TYPE dominosyn_fabric_units_reissued_total counter
dominosyn_fabric_units_reissued_total 0
# TYPE dominosyn_fabric_incumbent_broadcasts_total counter
dominosyn_fabric_incumbent_broadcasts_total 0
# TYPE dominosyn_fabric_units_recovered_total counter
dominosyn_fabric_units_recovered_total 0
# TYPE dominosyn_fabric_workers_quarantined_total counter
dominosyn_fabric_workers_quarantined_total 0
# TYPE dominosyn_fabric_quarantine_probes_total counter
dominosyn_fabric_quarantine_probes_total 0
)metrics";

TEST(ServerCore, MetricsExpositionKeepsItsBytes) {
  // A heuristic min-power answer, an explicit exact search and a rejection
  // move every request, search and probability series; the exposition of a
  // fresh core that served them is pinned byte for byte.
  ServerCore core(ServerConfig{});
  const Network heuristic = generate_benchmark(server_spec(83, /*pos=*/12));
  const ServerResponse mp =
      core.submit(make_request(heuristic, fast_options())).get();
  ASSERT_EQ(mp.status, ServerStatus::kOk) << mp.error_message;
  const Network small = generate_benchmark(server_spec(84, /*pos=*/6));
  const FlowOptions exhaustive = fast_options(PhaseMode::kExhaustivePower);
  const ServerResponse exact =
      core.submit(make_request(small, exhaustive)).get();
  ASSERT_EQ(exact.status, ServerStatus::kOk) << exact.error_message;
  ServerRequest late = make_request(small, fast_options());
  late.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(core.submit(std::move(late)).get().status,
            ServerStatus::kRejectedDeadline);
  core.shutdown();  // settles the queue and running gauges

  EXPECT_EQ(deterministic_metrics(core), kPinnedMetrics);
}

TEST(Transport, MetricsVerbServesPrometheusText) {
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  const Network net = generate_benchmark(server_spec(92, /*pos=*/4));
  ASSERT_EQ(core.submit(make_request(net, fast_options())).get().status,
            ServerStatus::kOk);

  // Multi-line exposition, `# EOF` terminated (terminator consumed by the
  // client helper); the connection stays usable afterwards.
  const std::string text = client.request_multiline("metrics", "# EOF");
  EXPECT_NE(text.find("# TYPE dominosyn_requests_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_requests_completed_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dominosyn_request_service_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_request_service_us_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_fabric_units_issued_total"),
            std::string::npos);
  EXPECT_EQ(text.find("# EOF"), std::string::npos);
  EXPECT_TRUE(client.ping());

  // The trace verb answers one JSON line with ok + traceEvents (span content
  // is covered by test_obs / test_dist; compiled-out builds serve an empty
  // event list through the same verb).
  const std::string trace = client.request("trace");
  EXPECT_EQ(protocol::find_bool(trace, "ok"), true);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);

  server.stop();
  core.shutdown();
}

TEST(Transport, OversizedLineAnswersErrorAndKeepsTheConnection) {
  // The reader is bounded (codec::kMaxLineLength): a line that never ends
  // must produce a typed protocol error instead of buffering without limit —
  // and the connection must stay usable once the line finally terminates,
  // because the reader discards the oversized remainder instead of parsing
  // garbage mid-line.
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  const std::string junk(2 * codec::kMaxLineLength, 'x');
  const std::string answer = client.request(junk);
  EXPECT_EQ(protocol::find_bool(answer, "ok"), false);
  const auto error = protocol::find_string(answer, "error");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("line exceeds"), std::string::npos) << *error;

  // Same connection, next command: fully functional.
  EXPECT_TRUE(client.ping());
  const std::string stats = client.request("stats");
  EXPECT_EQ(protocol::find_bool(stats, "ok"), true);

  server.stop();
  core.shutdown();
}

TEST(Transport, ByteAtATimeDeliveryParsesIdentically) {
  // Command parsing and kMaxLineLength enforcement must be independent of
  // how the bytes arrive: the short-read/short-write fault sites force every
  // recv/send on both ends down to one byte, maximally splitting command
  // lines, the inline BLIF body, and the response line.
  if (fault::kFaultsCompiledOut) GTEST_SKIP() << "faults compiled out";
  const std::string blif_text =
      ".model chunk_tiny\n"
      ".inputs a b c\n"
      ".outputs f g\n"
      ".names a b f\n11 1\n"
      ".names b c g\n00 1\n"
      ".end\n";
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  const std::string command = "submit blif=inline mode=ma sim_steps=128";

  fault::clear();
  Client clean = Client::connect_tcp("127.0.0.1", server.port());
  const Client::SubmitSummary whole = clean.submit(command, blif_text);
  ASSERT_TRUE(whole.ok) << whole.raw;

  fault::configure(
      "transport.recv.short_read=always;"
      "client.send.short_write=always;"
      "client.recv.short_read=always");
  Client chunked = Client::connect_tcp("127.0.0.1", server.port());
  const Client::SubmitSummary split = chunked.submit(command, blif_text);
  const std::uint64_t server_reads =
      fault::injected("transport.recv.short_read");
  fault::clear();

  ASSERT_TRUE(split.ok) << split.raw;
  // Identical parse and identical served report (timing telemetry and the
  // cache_hit flag legitimately differ between the two responses).
  EXPECT_EQ(split.circuit, whole.circuit);
  EXPECT_EQ(split.mode, whole.mode);
  EXPECT_EQ(split.cells, whole.cells);
  EXPECT_EQ(split.sim_power, whole.sim_power);
  EXPECT_EQ(split.est_power, whole.est_power);
  // The split delivery really happened: one server recv per delivered byte,
  // so at least command + body bytes worth of short reads.
  EXPECT_GE(server_reads, command.size() + blif_text.size());
  EXPECT_TRUE(chunked.ping());

  server.stop();
  core.shutdown();
}

TEST(ServerCore, BrownoutDegradesQueuedMinPowerToHeuristic) {
  // Overload brownout: while the queue sits at/above the high-water mark,
  // kMinPower requests lose the small-circuit auto-exhaustive upgrade (the
  // §4.1 heuristic answers, flagged degraded=1) — explicit kExhaustivePower
  // requests keep their contract regardless.
  const Network net = generate_benchmark(server_spec(93, /*pos=*/4));
  ServerConfig config;
  config.num_workers = 1;
  config.brownout_high_water = 1;
  ServerCore core(config);

  // Park the key so submits pile up behind the first request deterministically.
  SessionCache::Lease hold = core.cache().lease(net.name(), net, fast_options());
  auto exhaustive =
      core.submit(make_request(net, fast_options(PhaseMode::kExhaustivePower)));
  wait_until([&] { return core.stats().running_now == 1; });
  auto pressured = core.submit(make_request(net, fast_options()));
  auto last = core.submit(make_request(net, fast_options()));
  hold.release();

  // Explicit exhaustive under queue pressure: never degraded.
  const ServerResponse first = exhaustive.get();
  ASSERT_EQ(first.status, ServerStatus::kOk) << first.error_message;
  EXPECT_FALSE(first.telemetry.degraded);
  EXPECT_GT(first.report.search.nodes_expanded, 0u);

  // Executed with one request still queued behind it: degraded to the
  // heuristic (no branch-and-bound nodes), flagged in the telemetry.
  const ServerResponse degraded = pressured.get();
  ASSERT_EQ(degraded.status, ServerStatus::kOk) << degraded.error_message;
  EXPECT_TRUE(degraded.telemetry.degraded);
  EXPECT_EQ(degraded.report.search.nodes_expanded, 0u);

  // Queue drained: full service again (pos=4 re-enables auto-exhaustive).
  const ServerResponse healthy = last.get();
  ASSERT_EQ(healthy.status, ServerStatus::kOk) << healthy.error_message;
  EXPECT_FALSE(healthy.telemetry.degraded);

  EXPECT_EQ(core.stats().degraded_responses, 1u);
  core.shutdown();
}

TEST(ServerCore, BrownoutKeepsHotSessionsAboveTheExhaustiveLimit) {
  // Brownout only strips the auto-exhaustive upgrade, so a circuit with more
  // POs than the limit has nothing to degrade: under queue pressure its hot
  // session answers from the cache, undegraded, instead of rebuilding every
  // stage for an identical answer.
  const Network net = generate_benchmark(server_spec(83, /*pos=*/12));
  ServerConfig config;
  config.num_workers = 1;
  config.brownout_high_water = 1;
  ServerCore core(config);
  const ServerResponse cold =
      core.submit(make_request(net, fast_options())).get();
  ASSERT_EQ(cold.status, ServerStatus::kOk) << cold.error_message;
  wait_until([&] { return core.stats().running_now == 0; });

  // Park the key so submits pile up behind the first request deterministically.
  SessionCache::Lease hold = core.cache().lease(net.name(), net, fast_options());
  auto first = core.submit(make_request(net, fast_options()));
  wait_until([&] { return core.stats().running_now == 1; });
  auto pressured = core.submit(make_request(net, fast_options()));
  auto last = core.submit(make_request(net, fast_options()));
  hold.release();

  // `pressured` runs with `last` still queued, i.e. under brownout.
  for (auto* future : {&first, &pressured, &last}) {
    const ServerResponse response = future->get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    EXPECT_FALSE(response.telemetry.degraded);
    EXPECT_TRUE(response.telemetry.cache_hit);
    const FlowSession::Stats& rebuilt = response.telemetry.rebuilt;
    for (const std::size_t builds :
         {rebuilt.synth_builds, rebuilt.prob_builds, rebuilt.context_builds,
          rebuilt.assign_searches, rebuilt.map_runs, rebuilt.measure_runs})
      EXPECT_EQ(builds, 0u);
    expect_reports_identical(response.report, cold.report);
  }
  EXPECT_EQ(core.stats().degraded_responses, 0u);
  core.shutdown();
}

TEST(ServerCore, ClampsRequestThreadsToTheHardware) {
  // A request's thread count only costs pids past the hardware's (answers
  // never depend on it), so the core serves it with at most that many.
  const unsigned hardware = ThreadPool::resolve_threads(0);
  const Network net = generate_benchmark(server_spec(85));
  FlowOptions options = fast_options();
  options.num_threads = hardware + 1;
  ServerCore core(ServerConfig{});
  const ServerResponse response =
      core.submit(make_request(net, options)).get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  const auto session = core.cache().peek(net.name());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->options().num_threads, hardware);
  core.shutdown();
}

}  // namespace
}  // namespace dominosyn
