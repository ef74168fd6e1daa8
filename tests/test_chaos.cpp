/// Chaos suite (docs/robustness.md): deterministic fault injection driven
/// end to end through the serving and distributed layers.
///  * a 2-worker TCP fabric survives a mid-unit worker crash, a stalled
///    unit, torn transport writes/reads and a dropped complete_work — and
///    still serves the bit-identical report of a fault-free local run,
///  * Client retries carry submits through truncated response lines (same
///    rid= fingerprint, counted by the server as retried_submits),
///  * client io deadlines surface as ClientTimeoutError against a peer
///    that accepts but never answers,
///  * injected faults are visible in stats/metrics (faults_injected,
///    per-site dominosyn_faults_injected_total).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "blif/blif.hpp"
#include "dist/worker.hpp"
#include "flow/flow.hpp"
#include "server/client.hpp"
#include "server/core.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/fault.hpp"

namespace dominosyn {
namespace {

/// Every test runs with a locally-configured spec and leaves the registry
/// disarmed, so specs cannot leak between tests (or in from the CI chaos
/// job's DOMINOSYN_FAULT_SPEC, which these assertions don't expect).
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (fault::kFaultsCompiledOut)
      GTEST_SKIP() << "built with DOMINOSYN_NO_FAULTS";
    fault::clear();
  }
  void TearDown() override { fault::clear(); }
};

BenchSpec chaos_spec(std::uint64_t seed) {
  BenchSpec spec;
  spec.name = "chaos" + std::to_string(seed);
  spec.num_pis = 9;
  spec.num_pos = 8;
  spec.gate_target = 100;
  spec.seed = seed;
  return spec;
}

FlowOptions fabric_options() {
  FlowOptions options;
  options.mode = PhaseMode::kExhaustivePower;
  options.sim.steps = 400;
  options.sim.warmup = 8;
  options.dist.enabled = true;
  options.dist.frontier_depth = 4;
  options.dist.participate = false;  // remote workers do all the work
  options.dist.stall_takeover_ms = 60'000;
  options.dist.lease_timeout_ms = 1'000;
  return options;
}

ServerRequest fabric_request(const Network& net, const FlowOptions& options) {
  ServerRequest request;
  request.network = std::make_shared<const Network>(net);
  request.options = options;
  return request;
}

void expect_reports_identical(const FlowReport& a, const FlowReport& b) {
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.est_power, b.est_power);
  EXPECT_EQ(a.sim_power, b.sim_power);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.negative_outputs, b.negative_outputs);
}

TEST_F(ChaosTest, FabricServesBitIdenticalReportsUnderInjectedFaults) {
  const BenchSpec spec = chaos_spec(97);
  const Network net = generate_benchmark(spec);
  FlowOptions local = fabric_options();
  local.dist = {};  // fault-free single-process reference
  const FlowReport reference = run_flow(net, local);

  // One of everything the failure domains can throw: a worker crashing
  // mid-unit, a stalled unit (holding its lease), torn transport i/o in
  // both directions, a lost completion, and lease-grant latency.
  fault::configure(
      "worker.unit.crash=nth:2;"
      "worker.unit.stall=nth:5,delay_ms:50;"
      "coordinator.complete.drop=nth:3;"
      "transport.send.short_write=every:7;"
      "transport.recv.short_read=every:5;"
      "coordinator.lease.delay=every:4,delay_ms:2");

  ServerCore core(ServerConfig{});
  TransportConfig transport;  // ephemeral TCP loopback
  SocketServer server(core, transport);

  dist::WorkerConfig worker_config;
  worker_config.port = server.port();
  worker_config.num_threads = 1;
  worker_config.idle_poll_ms = 5;
  worker_config.reconnect_ms = 10;
  worker_config.reconnect_cap_ms = 50;
  std::vector<std::unique_ptr<dist::DistWorker>> fleet;
  for (unsigned w = 0; w < 2; ++w) {
    worker_config.name = "chaos" + std::to_string(w);
    fleet.push_back(std::make_unique<dist::DistWorker>(worker_config));
    fleet.back()->start();
  }

  const ServerResponse response =
      core.submit(fabric_request(net, fabric_options())).get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  expect_reports_identical(response.report, reference);

  // The chaos actually happened and the recovery paths actually ran.
  EXPECT_GT(fault::total_injected(), 0u);
  EXPECT_GE(fault::injected("worker.unit.crash"), 1u);
  EXPECT_GE(fault::injected("coordinator.complete.drop"), 1u);
  const ServerCore::Stats stats = core.stats();
  EXPECT_GE(stats.units_issued, 16u);
  EXPECT_GE(stats.units_reissued, 2u);  // crash + dropped completion
  EXPECT_GT(stats.faults_injected, 0u);

  // The injections ride the Prometheus exposition per site.
  const std::string text = core.prometheus_text();
  EXPECT_NE(text.find("dominosyn_faults_injected_total{site=\"worker.unit."
                      "crash\"}"),
            std::string::npos);

  for (auto& worker : fleet) worker->stop();
  server.stop();
  core.shutdown();
}

TEST_F(ChaosTest, SubmitRetriesThroughTruncatedResponses) {
  const std::string blif_text =
      ".model chaos_tiny\n"
      ".inputs a b c\n"
      ".outputs f g\n"
      ".names a b f\n11 1\n"
      ".names b c g\n00 1\n"
      ".end\n";
  const Network net = blif::read_string(blif_text);
  // Mirror exactly what the wire command sets: defaults + mode + sim_steps.
  FlowOptions options;
  options.mode = PhaseMode::kMinPower;
  options.sim.steps = 128;
  const FlowReport reference = run_flow(net, options);

  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);

  Client client = Client::connect_tcp("127.0.0.1", server.port());
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_ms = 1;
  retry.cap_ms = 5;
  client.set_retry_policy(retry);

  const std::string command = "submit blif=inline mode=mp sim_steps=128";
  const std::string& body = blif_text;

  // First two response lines come back torn in half; the third attempt's
  // line is whole.  Every attempt carries the same rid=, so the server sees
  // one logical request three times (two of them marked retry=).
  fault::configure("protocol.response.truncate=first:2");
  const Client::SubmitSummary summary = client.submit(command, body);
  fault::clear();

  ASSERT_TRUE(summary.ok) << summary.raw;
  EXPECT_EQ(summary.sim_power, reference.sim_power);
  EXPECT_EQ(summary.cells, reference.cells);
  EXPECT_EQ(client.telemetry().retries, 2u);
  EXPECT_EQ(client.telemetry().reconnects, 2u);

  const ServerCore::Stats stats = core.stats();
  // Attempt 1 executed; attempts 2 and 3 carried retry= and re-attached to
  // its finished job instead of re-running the flow (docs/robustness.md).
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retried_submits, 2u);
  EXPECT_EQ(stats.reattached_submits, 2u);

  server.stop();
  core.shutdown();
}

TEST_F(ChaosTest, SubmitRetriesThroughServerSendFailure) {
  // transport.send.fail makes the daemon's first response send die with EIO,
  // which tears the connection — the client must retry on a fresh socket via
  // the exception path (distinct from the torn-line path above).
  const std::string blif_text =
      ".model chaos_tiny2\n"
      ".inputs a b\n"
      ".outputs f\n"
      ".names a b f\n10 1\n"
      ".end\n";
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);

  Client client = Client::connect_tcp("127.0.0.1", server.port());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_ms = 1;
  client.set_retry_policy(retry);

  fault::configure("transport.send.fail=nth:1");
  const Client::SubmitSummary summary =
      client.submit("submit blif=inline mode=ma sim_steps=128", blif_text);
  fault::clear();
  ASSERT_TRUE(summary.ok) << summary.raw;
  EXPECT_EQ(client.telemetry().retries, 1u);
  EXPECT_EQ(client.telemetry().reconnects, 1u);
}

TEST_F(ChaosTest, ClientIoDeadlineSurfacesAsTimeout) {
  // A peer that accepts the connection but never answers: bind + listen
  // without ever reading or writing.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ClientTimeouts timeouts;
  timeouts.connect_ms = 1'000;
  timeouts.io_ms = 100;
  Client client =
      Client::connect_tcp("127.0.0.1", ntohs(addr.sin_port), timeouts);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.request("ping"), ClientTimeoutError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_LT(elapsed.count(), 5'000);
  EXPECT_EQ(client.telemetry().timeouts, 1u);
  ::close(listener);
}

}  // namespace
}  // namespace dominosyn
