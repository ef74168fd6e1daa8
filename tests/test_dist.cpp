/// Tests for the distributed search fabric (src/dist/, docs/distributed.md):
///  * wire round-trips of every fabric message — exact uint64 codes past
///    2^53, infinite metrics, percent-encoded error text, slim grants, and
///    generator specs, multi-line BLIF and bit-exact probabilities inside
///    one-line JSON circuit payloads,
///  * coordinator bookkeeping: lease/complete/merge order, steal only when
///    the queue is dry, keep-first duplicate resolution, deadline expiry and
///    disconnect re-issue, completion racing a re-queue, fail-fast on bad
///    units, cancel_all resolving every future, a circuit payload living
///    exactly as long as its job,
///  * the determinism contract: dist_exhaustive_search returns the
///    single-process search's bit-identical (cost, assignment) — and,
///    without shared bounds, bit-identical work counters — for every
///    frontier depth, helper thread count and shared-bounds setting, and
///    refuses a frontier deeper than kMaxFrontierDepth before opening a job,
///  * the fabric end to end: dominod core + TCP transport + DistWorker
///    processes serving submits bit-identically to a local run, a worker
///    dying mid-lease (re-issue + identical report), reports of a
///    participating core and of remote workers pinned byte for byte and
///    equal to dist=0 reports (min-area searches issuing no units, the
///    workers shipping no probability stage), a two-thread worker serving
///    two jobs while one of its fetches is held, circuit payloads that do
///    not fit failing the unit by name while the submit serves the local
///    report, fetch_circuit refusing unknown and finished jobs, a worker's
///    bounded circuit cache, a session whose options workers cannot replay
///    searching locally, and non-drain shutdown resolving a dist-waiting
///    submit.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "dist/coordinator.hpp"
#include "dist/search.hpp"
#include "dist/worker.hpp"
#include "dist/workunit.hpp"
#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "network/synth.hpp"
#include "obs/trace.hpp"
#include "phase/assignment.hpp"
#include "phase/search.hpp"
#include "server/client.hpp"
#include "server/core.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "sgraph/partition.hpp"
#include "util/codec.hpp"

namespace dominosyn::dist {
namespace {

BenchSpec dist_spec(std::uint64_t seed, std::size_t pos = 8,
                    std::size_t gates = 100) {
  BenchSpec spec;
  spec.name = "dist" + std::to_string(seed) + "_" + std::to_string(pos);
  spec.num_pis = 9;
  spec.num_pos = pos;
  spec.gate_target = gates;
  spec.seed = seed;
  return spec;
}

/// The synthesized network + evaluator a worker would rebuild for the spec
/// (FlowSession's own preparation), owning the network the evaluator
/// references.
struct Prepared {
  Network net;
  std::unique_ptr<AssignmentEvaluator> evaluator;
};

std::unique_ptr<Prepared> prepare(const BenchSpec& spec, double pi_prob = 0.5) {
  auto prepared = std::make_unique<Prepared>();
  Network net = compact_copy(generate_benchmark(spec));
  try {
    check_phase_ready(net);
  } catch (const std::runtime_error&) {
    standard_synthesis(net);
  }
  prepared->net = std::move(net);
  const std::vector<double> pi_probs(prepared->net.num_pis(), pi_prob);
  const SeqProbResult probs =
      sequential_signal_probabilities(prepared->net, pi_probs, {});
  prepared->evaluator = std::make_unique<AssignmentEvaluator>(
      prepared->net, probs.node_probs, default_flow_power_model());
  return prepared;
}

DistSearchOptions fabric_options(DistCoordinator& coordinator,
                                 const BenchSpec& spec,
                                 std::size_t frontier_depth,
                                 bool shared_bounds = false) {
  DistSearchOptions dist;
  dist.enabled = true;
  dist.coordinator = &coordinator;
  dist.frontier_depth = frontier_depth;
  dist.shared_bounds = shared_bounds;
  dist.circuit.has_bench = true;
  dist.circuit.bench = spec;
  return dist;
}

void expect_cost_identical(const AssignmentCost& a, const AssignmentCost& b) {
  EXPECT_EQ(a.power.domino_block, b.power.domino_block);
  EXPECT_EQ(a.power.input_inverters, b.power.input_inverters);
  EXPECT_EQ(a.power.output_inverters, b.power.output_inverters);
  EXPECT_EQ(a.power.clock_load, b.power.clock_load);
  EXPECT_EQ(a.domino_gates, b.domino_gates);
  EXPECT_EQ(a.duplicated_gates, b.duplicated_gates);
  EXPECT_EQ(a.input_inverters, b.input_inverters);
  EXPECT_EQ(a.output_inverters, b.output_inverters);
}

using codec::split_tokens;

std::vector<WorkUnit> trivial_units(std::size_t count) {
  return std::vector<WorkUnit>(count);
}

void wait_until(const std::function<bool()>& done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "condition timeout";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// -- wire round-trips ---------------------------------------------------------

TEST(DistWire, CompleteCommandRoundTripsExactly) {
  UnitResult result;
  result.job_id = 7;
  result.unit_id = (1ULL << 62) + 3;  // unit ids are exact uint64, not doubles
  result.ok = true;
  result.metric = 123.4567890123456789;
  result.code = (1ULL << 61) + 12345;  // would corrupt through a double
  result.leaves = 11;
  result.nodes_expanded = 222;
  result.subtrees_pruned = 33;
  result.budget_tripped = true;

  const std::string line = format_complete_command("w#0", result);
  const UnitResult parsed = parse_complete_tokens(split_tokens(line));
  EXPECT_EQ(parsed.job_id, result.job_id);
  EXPECT_EQ(parsed.unit_id, result.unit_id);
  EXPECT_EQ(parsed.ok, result.ok);
  EXPECT_EQ(parsed.metric, result.metric);  // shortest-round-trip: bit-exact
  EXPECT_EQ(parsed.code, result.code);
  EXPECT_EQ(parsed.leaves, result.leaves);
  EXPECT_EQ(parsed.nodes_expanded, result.nodes_expanded);
  EXPECT_EQ(parsed.subtrees_pruned, result.subtrees_pruned);
  EXPECT_EQ(parsed.budget_tripped, result.budget_tripped);

  // A fully-pruned subtree reports +inf / ~0; free-text errors survive the
  // whitespace-split command line via percent encoding.
  UnitResult failed;
  failed.job_id = 1;
  failed.unit_id = 2;
  failed.ok = false;
  failed.error = "fingerprint mismatch: 50% off = bad\nsecond line";
  const UnitResult refailed =
      parse_complete_tokens(split_tokens(format_complete_command("w", failed)));
  EXPECT_FALSE(refailed.ok);
  EXPECT_EQ(refailed.error, failed.error);
  EXPECT_TRUE(std::isinf(refailed.metric));
  EXPECT_EQ(refailed.code, std::numeric_limits<std::uint64_t>::max());

  EXPECT_THROW((void)parse_complete_tokens(split_tokens("complete_work ok=1")),
               std::runtime_error);  // job=/unit= are mandatory
}

TEST(DistWire, WorkGrantRoundTripsUnitFieldsAndCircuitKey) {
  WorkUnit unit;
  unit.job_id = 9;
  unit.unit_id = 41;
  unit.by_power = false;
  unit.task = (1ULL << 60) + 77;
  unit.frontier_depth = 6;
  unit.bound_snapshot = 98.5;
  unit.node_budget = 1ULL << 21;
  unit.shared_bounds = true;
  unit.circuit.pi_prob = 0.375;
  unit.circuit.load_aware = false;
  unit.circuit.fingerprint = (1ULL << 63) + 99;

  const std::string text = format_work_grant(unit, 42.25);
  // The grant names its circuit by key; the circuit travels once per job.
  for (const char* absent : {"\"corpus\"", "\"blif\"", "\"bench"})
    EXPECT_EQ(text.find(absent), std::string::npos) << absent;
  const auto grant = parse_work_grant(text);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->incumbent, 42.25);
  const WorkUnit& got = grant->unit;
  EXPECT_EQ(got.job_id, unit.job_id);
  EXPECT_EQ(got.unit_id, unit.unit_id);
  EXPECT_EQ(got.by_power, unit.by_power);
  EXPECT_EQ(got.task, unit.task);
  EXPECT_EQ(got.frontier_depth, unit.frontier_depth);
  EXPECT_EQ(got.bound_snapshot, unit.bound_snapshot);
  EXPECT_EQ(got.node_budget, unit.node_budget);
  EXPECT_TRUE(got.shared_bounds);
  EXPECT_EQ(got.circuit, unit.circuit);

  // A unit with an infinite bound snapshot.
  WorkUnit unbounded;
  unbounded.job_id = 2;
  const auto regrant = parse_work_grant(
      format_work_grant(unbounded, std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(regrant.has_value());
  EXPECT_TRUE(std::isinf(regrant->incumbent));
  EXPECT_EQ(regrant->unit.circuit, unbounded.circuit);
  EXPECT_TRUE(std::isinf(regrant->unit.bound_snapshot));
  // A 32-bit field past 2^32 is no grant rather than a truncated one.
  const std::string field = "\"frontier\":0,";
  std::string wide = format_work_grant(unbounded, 1.0);
  wide.replace(wide.find(field), field.size(), "\"frontier\":4294967296,");
  EXPECT_THROW((void)parse_work_grant(wide), codec::Error) << wide;

  EXPECT_FALSE(parse_work_grant(format_no_work()).has_value());
  EXPECT_THROW((void)parse_work_grant("{\"ok\":false}"), std::runtime_error);
}

TEST(DistWire, CircuitPayloadRoundTripsGeneratorSpecBlifAndProbabilities) {
  CircuitSpec bench;
  bench.has_bench = true;
  bench.bench = dist_spec(5, 10, 120);
  bench.bench.name = "Industry 1";  // corpus names contain spaces
  bench.key.pi_prob = 0.375;
  bench.key.load_aware = false;
  bench.key.fingerprint = (1ULL << 63) + 99;
  // Shortest-round-trip decimals: every probability decodes bit-exact.
  const std::vector<double> probs = {0.0, 1.0, 0.1 + 0.2, 1.0 / 3.0,
                                     std::nextafter(1.0, 0.0), 5e-324};
  const CircuitPayload got =
      parse_circuit_payload(format_circuit_payload(bench, probs));
  ASSERT_TRUE(got.circuit.has_bench);
  EXPECT_EQ(got.circuit.bench.name, bench.bench.name);
  EXPECT_EQ(got.circuit.bench.num_pis, bench.bench.num_pis);
  EXPECT_EQ(got.circuit.bench.num_pos, bench.bench.num_pos);
  EXPECT_EQ(got.circuit.bench.gate_target, bench.bench.gate_target);
  EXPECT_EQ(got.circuit.bench.seed, bench.bench.seed);
  EXPECT_EQ(got.circuit.key, bench.key);
  ASSERT_EQ(got.probs.size(), probs.size());
  EXPECT_EQ(std::memcmp(got.probs.data(), probs.data(),
                        probs.size() * sizeof(double)),
            0);

  // Verbatim BLIF (quotes, newlines) inside the one-line JSON reply.
  CircuitSpec blif;
  blif.blif_text =
      ".model \"q\"\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  const CircuitPayload reblif =
      parse_circuit_payload(format_circuit_payload(blif, {0.5}));
  EXPECT_EQ(reblif.circuit.blif_text, blif.blif_text);
  EXPECT_FALSE(reblif.circuit.has_bench);
  EXPECT_EQ(reblif.probs, std::vector<double>{0.5});

  // A refusal names the job; a probability no encoder writes is no payload.
  const std::string refusal = format_no_circuit(12);
  EXPECT_NE(refusal.find("job 12"), std::string::npos) << refusal;
  EXPECT_THROW((void)parse_circuit_payload(refusal), codec::Error);
  std::string junk = format_circuit_payload(blif, {0.5, 0.25});
  junk.replace(junk.find("0.25"), 4, "0.2x");
  EXPECT_THROW((void)parse_circuit_payload(junk), codec::Error);
}

TEST(DistWire, CompleteCommandRejectsTextNoEncoderWrites) {
  // Flags are 0|1 and numbers are whole tokens: a peer's `ok=false` must
  // not be merged as a successful unit, nor `metric=3.5junk` as 3.5.
  const std::string head = "complete_work worker=w job=1 unit=0 ";
  // An older worker's result keys (`evals=`, and `assignment=` on an
  // annealing result) are no longer part of the format.
  for (const std::string tail :
       {"ok=false", "ok=true", "tripped=no", "metric=3.5junk",
        "metric=+1", "code=12x", "leaves=-1", "evals=0", "assignment=+-"}) {
    EXPECT_THROW((void)parse_complete_tokens(split_tokens(head + tail)),
                 codec::Error)
        << tail;
    std::istringstream in(head + tail + "\n");
    EXPECT_THROW((void)protocol::read_command(in), protocol::ProtocolError)
        << tail;
  }
  const UnitResult good =
      parse_complete_tokens(split_tokens(head + "ok=0 tripped=1 metric=-inf"));
  EXPECT_FALSE(good.ok);
  EXPECT_TRUE(good.budget_tripped);
  EXPECT_EQ(good.metric, -std::numeric_limits<double>::infinity());
}

TEST(DistWire, IncumbentAckRoundTrips) {
  EXPECT_EQ(parse_incumbent(format_incumbent_ack(77.125)), 77.125);
  EXPECT_TRUE(std::isinf(parse_incumbent(
      format_incumbent_ack(std::numeric_limits<double>::infinity()))));
}

TEST(DistWire, TraceIdAndSpansRideTheFabricVerbs) {
  // The grant carries the submit's trace id so a worker's spans join the
  // coordinator's timeline; 0 means "no trace" and stays off the wire.
  WorkUnit unit;
  unit.job_id = 3;
  unit.unit_id = 14;
  unit.trace_id = (1ULL << 53) + 9;  // ids are exact uint64, not doubles
  auto grant = parse_work_grant(format_work_grant(unit, 1.0));
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->unit.trace_id, unit.trace_id);

  unit.trace_id = 0;
  const std::string untraced = format_work_grant(unit, 1.0);
  EXPECT_EQ(untraced.find("trace"), std::string::npos);
  grant = parse_work_grant(untraced);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->unit.trace_id, 0u);

  // complete_work ships the unit's spans as one percent-encoded token; the
  // codec round-trips through the whitespace-split command line.
  obs::TraceEvent event{};
  std::snprintf(event.name, sizeof(event.name), "dist.unit");
  event.trace_id = (1ULL << 53) + 9;
  event.start_us = 1'700'000'000'000'000ull;
  event.dur_us = 4321;
  event.tid = 2;
  event.cat = static_cast<std::uint8_t>(obs::SpanCat::kDist);
  UnitResult result;
  result.job_id = 3;
  result.unit_id = 14;
  result.ok = true;
  result.metric = 5.0;
  result.spans_wire = obs::spans_to_wire({event});

  const UnitResult parsed = parse_complete_tokens(
      split_tokens(format_complete_command("w#0", result)));
  EXPECT_EQ(parsed.spans_wire, result.spans_wire);
  const std::vector<obs::TraceEvent> back =
      obs::spans_from_wire(parsed.spans_wire);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_STREQ(back[0].name, "dist.unit");
  EXPECT_EQ(back[0].trace_id, event.trace_id);
  EXPECT_EQ(back[0].start_us, event.start_us);
  EXPECT_EQ(back[0].dur_us, event.dur_us);

  // No spans -> no key, and parsing leaves the field empty.
  result.spans_wire.clear();
  const std::string bare = format_complete_command("w#0", result);
  EXPECT_EQ(bare.find("spans="), std::string::npos);
  EXPECT_TRUE(parse_complete_tokens(split_tokens(bare)).spans_wire.empty());
}

// -- coordinator bookkeeping --------------------------------------------------

TEST(DistCoordinatorTest, LeaseCompleteMergeInUnitOrder) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(3), 60'000);
  ASSERT_NE(job.job_id, 0u);

  // Units lease in unit order; completions out of order still merge in order.
  for (std::uint64_t expect : {0u, 1u, 2u}) {
    const auto grant = coordinator.lease("A");
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(grant->unit.unit_id, expect);
    EXPECT_EQ(grant->unit.job_id, job.job_id);
  }
  EXPECT_FALSE(coordinator.lease("A").has_value());

  for (const std::uint64_t unit_id : {2u, 0u, 1u}) {
    UnitResult result;
    result.job_id = job.job_id;
    result.unit_id = unit_id;
    result.metric = 10.0 + static_cast<double>(unit_id);
    EXPECT_TRUE(coordinator.complete("A", result).accepted);
  }
  ASSERT_EQ(job.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const JobResult merged = job.future.get();
  EXPECT_FALSE(merged.cancelled);
  EXPECT_TRUE(merged.error.empty());
  ASSERT_EQ(merged.units.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(merged.units[i].metric, 10.0 + static_cast<double>(i));
  EXPECT_EQ(coordinator.counters().units_issued, 3u);
  EXPECT_EQ(coordinator.counters().units_reissued, 0u);
}

TEST(DistCoordinatorTest, StealOnlyWhenQueueDryAndKeepFirstWins) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(2), 60'000);

  auto first = coordinator.lease("A");
  ASSERT_TRUE(first.has_value());
  // Queued work exists: stealing is refused — lease instead.
  EXPECT_FALSE(coordinator.steal("B").has_value());
  auto second = coordinator.lease("A");
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(coordinator.lease("B").has_value());

  // Dry queue: B duplicates A's earliest lease, then the next one; a worker
  // never duplicates a unit it already holds (so the third steal is empty,
  // and A cannot steal back what it leased).
  const auto stolen = coordinator.steal("B");
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->unit.unit_id, 0u);
  const auto stolen2 = coordinator.steal("B");
  ASSERT_TRUE(stolen2.has_value());
  EXPECT_EQ(stolen2->unit.unit_id, 1u);
  EXPECT_FALSE(coordinator.steal("B").has_value());
  EXPECT_FALSE(coordinator.steal("A").has_value());
  EXPECT_EQ(coordinator.counters().units_stolen, 2u);

  // B finishes unit 0 first; A's later duplicate is dropped (keep-first).
  UnitResult from_b;
  from_b.job_id = job.job_id;
  from_b.unit_id = 0;
  from_b.metric = 5.0;
  EXPECT_TRUE(coordinator.complete("B", from_b).accepted);
  UnitResult from_a = from_b;
  from_a.metric = 7.0;
  EXPECT_FALSE(coordinator.complete("A", from_a).accepted);

  UnitResult last;
  last.job_id = job.job_id;
  last.unit_id = 1;
  last.metric = 6.0;
  EXPECT_TRUE(coordinator.complete("A", last).accepted);

  const JobResult merged = job.future.get();
  ASSERT_EQ(merged.units.size(), 2u);
  EXPECT_EQ(merged.units[0].metric, 5.0);  // B's first completion was kept
  EXPECT_EQ(merged.units[1].metric, 6.0);
}

TEST(DistCoordinatorTest, ExpiredLeaseIsReissued) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(1), /*lease_timeout_ms=*/1);
  ASSERT_TRUE(coordinator.lease("A").has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  coordinator.sweep();
  EXPECT_EQ(coordinator.counters().units_reissued, 1u);

  const auto regrant = coordinator.lease("B");
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->unit.unit_id, 0u);

  // The slow original still finishes first: keep-first applies to re-issues
  // exactly like steals.
  UnitResult result;
  result.job_id = job.job_id;
  result.unit_id = 0;
  result.metric = 3.0;
  EXPECT_TRUE(coordinator.complete("A", result).accepted);
  EXPECT_FALSE(coordinator.complete("B", result).accepted);
  EXPECT_EQ(job.future.get().units.at(0).metric, 3.0);
}

TEST(DistCoordinatorTest, DisconnectRequeuesAndCompletionBeatsRequeue) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(2), 60'000);
  ASSERT_TRUE(coordinator.lease("A").has_value());  // unit 0
  ASSERT_TRUE(coordinator.lease("A").has_value());  // unit 1
  coordinator.worker_disconnected("A");
  EXPECT_EQ(coordinator.counters().units_reissued, 2u);

  // Unit 0 re-leases normally after the re-queue...
  const auto regrant = coordinator.lease("B");
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->unit.unit_id, 0u);

  // ...while A's completion of unit 1 lands even though the unit sits in the
  // queue again — accepting it must also pull it back out, or it would be
  // granted (and run) a second time after being done.
  UnitResult late;
  late.job_id = job.job_id;
  late.unit_id = 1;
  late.metric = 9.0;
  EXPECT_TRUE(coordinator.complete("A", late).accepted);
  EXPECT_FALSE(coordinator.lease("B").has_value());

  UnitResult first;
  first.job_id = job.job_id;
  first.unit_id = 0;
  first.metric = 8.0;
  EXPECT_TRUE(coordinator.complete("B", first).accepted);
  const JobResult merged = job.future.get();
  EXPECT_EQ(merged.units.at(0).metric, 8.0);
  EXPECT_EQ(merged.units.at(1).metric, 9.0);
}

TEST(DistCoordinatorTest, FailedUnitFailsTheWholeJob) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(2), 60'000);
  ASSERT_TRUE(coordinator.lease("A").has_value());
  UnitResult bad;
  bad.job_id = job.job_id;
  bad.unit_id = 0;
  bad.ok = false;
  bad.error = "engine exploded";
  (void)coordinator.complete("A", bad);
  ASSERT_EQ(job.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const JobResult merged = job.future.get();
  EXPECT_FALSE(merged.cancelled);
  EXPECT_NE(merged.error.find("engine exploded"), std::string::npos);
}

TEST(DistCoordinatorTest, CancelAllResolvesEveryFutureAndRefusesNewJobs) {
  DistCoordinator coordinator;
  auto open = coordinator.open_job(trivial_units(2), 60'000);
  ASSERT_TRUE(coordinator.lease("A").has_value());  // outstanding lease
  coordinator.cancel_all();
  EXPECT_TRUE(coordinator.closed());
  ASSERT_EQ(open.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(open.future.get().cancelled);

  auto after = coordinator.open_job(trivial_units(1), 60'000);
  EXPECT_EQ(after.job_id, 0u);
  EXPECT_TRUE(after.future.get().cancelled);
  EXPECT_FALSE(coordinator.lease("A").has_value());
}

TEST(DistCoordinatorTest, IncumbentRelayKeepsTheMinimum) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(1), 60'000);
  EXPECT_TRUE(std::isinf(coordinator.current_incumbent(job.job_id)));
  EXPECT_EQ(coordinator.push_incumbent("A", job.job_id, 10.0), 10.0);
  EXPECT_EQ(coordinator.counters().incumbent_broadcasts, 1u);
  // A worse report is not a broadcast; the relay answers with the better one.
  EXPECT_EQ(coordinator.push_incumbent("B", job.job_id, 12.0), 10.0);
  EXPECT_EQ(coordinator.counters().incumbent_broadcasts, 1u);
  EXPECT_EQ(coordinator.current_incumbent(job.job_id), 10.0);
  // Unknown jobs echo the pushed metric and track nothing.
  EXPECT_EQ(coordinator.push_incumbent("A", 999, 3.0), 3.0);
}

TEST(DistCoordinatorTest, QuarantineTripsProbesAndRehabilitates) {
  DistCoordinator coordinator;
  coordinator.set_quarantine({/*threshold=*/2, /*probe_every=*/3});
  auto job = coordinator.open_job(trivial_units(4), 60'000);

  // Two consecutive disconnect-with-lease failures trip the breaker.
  ASSERT_TRUE(coordinator.lease("A").has_value());
  coordinator.worker_disconnected("A");
  EXPECT_FALSE(coordinator.worker_quarantined("A"));
  ASSERT_TRUE(coordinator.lease("A").has_value());
  coordinator.worker_disconnected("A");
  EXPECT_TRUE(coordinator.worker_quarantined("A"));
  EXPECT_EQ(coordinator.counters().workers_quarantined, 1u);

  // Quarantined: lease/steal refuse A while B still gets work.
  EXPECT_FALSE(coordinator.lease("A").has_value());
  EXPECT_FALSE(coordinator.lease("A").has_value());
  ASSERT_TRUE(coordinator.lease("B").has_value());

  // Every probe_every-th refused request is granted as a re-admit probe
  // (two refusals above, so this third request goes through).
  const auto probe = coordinator.lease("A");
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(coordinator.counters().quarantine_probes, 1u);
  EXPECT_TRUE(coordinator.worker_quarantined("A"));

  // A successful completion rehabilitates the worker entirely.
  UnitResult result;
  result.job_id = job.job_id;
  result.unit_id = probe->unit.unit_id;
  result.metric = 1.0;
  EXPECT_TRUE(coordinator.complete("A", result).accepted);
  EXPECT_FALSE(coordinator.worker_quarantined("A"));
  EXPECT_TRUE(coordinator.lease("A").has_value());
}

TEST(DistCoordinatorTest, QuarantineCountsFailedUnitsAndCanBeDisabled) {
  DistCoordinator coordinator;
  coordinator.set_quarantine({/*threshold=*/2, /*probe_every=*/8});
  // ok=false completions count as failures too (fresh job per attempt —
  // a failed unit fails its whole job).
  for (int round = 0; round < 2; ++round) {
    auto job = coordinator.open_job(trivial_units(1), 60'000);
    const auto grant = coordinator.lease("A");
    ASSERT_TRUE(grant.has_value());
    UnitResult bad;
    bad.job_id = job.job_id;
    bad.unit_id = grant->unit.unit_id;
    bad.ok = false;
    bad.error = "boom";
    (void)coordinator.complete("A", bad);
  }
  EXPECT_TRUE(coordinator.worker_quarantined("A"));

  // threshold=0 disables the gate without dropping health records.
  coordinator.set_quarantine({/*threshold=*/0, /*probe_every=*/8});
  (void)coordinator.open_job(trivial_units(1), 60'000);
  EXPECT_TRUE(coordinator.lease("A").has_value());
}

TEST(DistCoordinatorTest, CircuitPayloadLivesExactlyAsLongAsItsJob) {
  DistCoordinator coordinator;
  auto job = coordinator.open_job(trivial_units(1), 60'000, "", "payload");
  const auto payload = coordinator.fetch_circuit(job.job_id);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(*payload, "payload");
  EXPECT_EQ(coordinator.fetch_circuit(job.job_id + 1), nullptr);  // unknown
  ASSERT_TRUE(coordinator.lease("A").has_value());
  UnitResult done;
  done.job_id = job.job_id;
  done.unit_id = 0;
  done.metric = 1.0;
  EXPECT_TRUE(coordinator.complete("A", done).accepted);
  EXPECT_EQ(coordinator.fetch_circuit(job.job_id), nullptr);  // finished

  // A failed job and a cancelled one drop their payloads too; a job opened
  // without one has none.
  auto failing = coordinator.open_job(trivial_units(1), 60'000, "", "x");
  ASSERT_TRUE(coordinator.lease("A").has_value());
  UnitResult bad;
  bad.job_id = failing.job_id;
  bad.unit_id = 0;
  bad.ok = false;
  (void)coordinator.complete("A", bad);
  EXPECT_EQ(coordinator.fetch_circuit(failing.job_id), nullptr);
  auto bare = coordinator.open_job(trivial_units(1), 60'000);
  EXPECT_EQ(coordinator.fetch_circuit(bare.job_id), nullptr);
  auto cancelled = coordinator.open_job(trivial_units(1), 60'000, "", "y");
  coordinator.cancel_all();
  EXPECT_EQ(coordinator.fetch_circuit(cancelled.job_id), nullptr);
}

// -- determinism of the distributed searches ----------------------------------

TEST(DistSearchTest, ExhaustiveBitIdenticalAcrossEveryTopology) {
  const BenchSpec spec = dist_spec(31, /*pos=*/8);
  const auto prepared = prepare(spec);
  ExhaustiveOptions local;
  local.num_threads = 1;
  const SearchResult reference =
      exhaustive_min_power(*prepared->evaluator, local);

  for (const std::size_t frontier : {std::size_t{1}, std::size_t{4},
                                     std::size_t{8}}) {
    // Deterministic-mode counters are a pure function of the split: every
    // helper-thread count produces this frontier's exact counter set.
    std::optional<SearchResult> baseline;
    for (const bool shared : {false, true}) {
      for (const unsigned threads : {1u, 2u}) {
        DistCoordinator coordinator;
        const DistSearchOptions dist =
            fabric_options(coordinator, spec, frontier, shared);
        ExhaustiveOptions options;
        options.num_threads = threads;
        const SearchResult got = dist_exhaustive_search(
            *prepared->evaluator, /*by_power=*/true, options, dist);

        // The result is the single-process search's, bit for bit.
        EXPECT_EQ(got.assignment, reference.assignment);
        expect_cost_identical(got.cost, reference.cost);
        EXPECT_EQ(got.counters.bound_tightness,
                  reference.counters.bound_tightness);

        if (shared) continue;
        if (!baseline) {
          baseline = got;
          continue;
        }
        EXPECT_EQ(got.counters.evaluations, baseline->counters.evaluations);
        EXPECT_EQ(got.counters.nodes_expanded,
                  baseline->counters.nodes_expanded);
        EXPECT_EQ(got.counters.subtrees_pruned,
                  baseline->counters.subtrees_pruned);
      }
    }
  }

  // Min-area exact search distributes through the same driver.
  const SearchResult area_reference =
      exhaustive_min_area(*prepared->evaluator, local);
  DistCoordinator coordinator;
  ExhaustiveOptions options;
  options.num_threads = 2;
  const SearchResult area = dist_exhaustive_search(
      *prepared->evaluator, /*by_power=*/false, options,
      fabric_options(coordinator, spec, /*frontier=*/3));
  EXPECT_EQ(area.assignment, area_reference.assignment);
  expect_cost_identical(area.cost, area_reference.cost);
}

TEST(DistSearchTest, ExhaustiveKeepsTheLocalErrorContracts) {
  const BenchSpec spec = dist_spec(32, /*pos=*/8);
  const auto prepared = prepare(spec);
  DistCoordinator coordinator;
  const DistSearchOptions dist = fabric_options(coordinator, spec, 4);

  ExhaustiveOptions too_small;
  too_small.max_outputs = 5;
  EXPECT_THROW((void)dist_exhaustive_search(*prepared->evaluator, true,
                                            too_small, dist),
               ExhaustiveLimitError);

  ExhaustiveOptions starved;
  starved.node_budget = 1;
  EXPECT_THROW((void)dist_exhaustive_search(*prepared->evaluator, true,
                                            starved, dist),
               ExhaustiveBudgetError);

  DistSearchOptions disabled;
  EXPECT_THROW((void)dist_exhaustive_search(*prepared->evaluator, true,
                                            ExhaustiveOptions{}, disabled),
               DistSearchError);
}

TEST(DistSearchTest, FrontierDeeperThanTheLimitOpensNoJob) {
  // A job's units are built before its first lease, so the driver refuses
  // a depth past the limit up front, whatever the output count; the flow
  // then reruns the search locally.
  const BenchSpec spec = dist_spec(33, /*pos=*/8);
  const auto prepared = prepare(spec);
  DistCoordinator coordinator;
  EXPECT_THROW((void)dist_exhaustive_search(
                   *prepared->evaluator, true, ExhaustiveOptions{},
                   fabric_options(coordinator, spec, kMaxFrontierDepth + 1)),
               DistSearchError);
  EXPECT_EQ(coordinator.counters().units_issued, 0u);
  // The next job the coordinator opens is its first.
  EXPECT_EQ(coordinator.open_job(trivial_units(1), 1'000).job_id, 1u);
}

// -- the fabric end to end ----------------------------------------------------

FlowOptions dist_flow_options(const BenchSpec& spec, bool participate,
                              std::uint32_t stall_takeover_ms,
                              bool shared = false) {
  FlowOptions options;
  options.mode = PhaseMode::kExhaustivePower;
  options.sim.steps = 400;
  options.sim.warmup = 8;
  options.dist.enabled = true;
  options.dist.frontier_depth = 4;
  options.dist.shared_bounds = shared;
  options.dist.participate = participate;
  options.dist.stall_takeover_ms = stall_takeover_ms;
  options.dist.circuit.has_bench = true;
  options.dist.circuit.bench = spec;
  return options;
}

ServerRequest dist_request(const Network& net, const FlowOptions& options) {
  ServerRequest request;
  request.network = std::make_shared<const Network>(net);
  request.options = options;
  return request;
}

void expect_reports_identical(const FlowReport& a, const FlowReport& b,
                              bool counters = true) {
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.est_power, b.est_power);
  EXPECT_EQ(a.sim_power, b.sim_power);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.negative_outputs, b.negative_outputs);
  EXPECT_EQ(a.search.bound_tightness, b.search.bound_tightness);
  if (!counters) return;  // shared bounds: timing-dependent telemetry
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  EXPECT_EQ(a.search.nodes_expanded, b.search.nodes_expanded);
  EXPECT_EQ(a.search.subtrees_pruned, b.search.subtrees_pruned);
}

TEST(DistFabric, TcpWorkersServeSubmitsBitIdenticallyToLocal) {
  const BenchSpec spec = dist_spec(41, /*pos=*/8);
  const Network net = generate_benchmark(spec);
  FlowOptions local_options = dist_flow_options(spec, false, 0);
  local_options.dist = {};  // plain single-process reference
  const FlowReport reference = run_flow(net, local_options);

  std::vector<FlowReport> reports;
  for (const unsigned workers : {1u, 2u}) {
    ServerCore core(ServerConfig{});
    TransportConfig transport;  // ephemeral TCP loopback
    SocketServer server(core, transport);

    WorkerConfig worker_config;
    worker_config.port = server.port();
    worker_config.num_threads = 1;
    worker_config.idle_poll_ms = 5;
    std::vector<std::unique_ptr<DistWorker>> fleet;
    for (unsigned w = 0; w < workers; ++w) {
      worker_config.name = 'w' + std::to_string(w);
      fleet.push_back(std::make_unique<DistWorker>(worker_config));
      fleet.back()->start();
    }

    // The driver only waits (no inline participation) and would take over
    // after 20 s — long enough that the workers always do the work.
    const ServerResponse response =
        core.submit(
                dist_request(net, dist_flow_options(spec, false, 20'000)))
            .get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    // The served (assignment, cost) is the local flow's, bit for bit.  The
    // distributed B&B counters are deterministic too, but count a different
    // (shard-local pruning) schedule than the single-process search — they
    // are compared across worker counts below, not against the local run.
    expect_reports_identical(response.report, reference, /*counters=*/false);
    reports.push_back(response.report);

    const ServerCore::Stats stats = core.stats();
    EXPECT_GE(stats.units_issued, 16u);  // 2^4 frontier subtrees
    // The job resolves when the coordinator accepts the last result, a
    // moment *before* that worker reads its ack and bumps its counter —
    // wait for the fleet's tallies to settle instead of racing them.
    const auto fleet_completed = [&fleet] {
      std::uint64_t completed = 0;
      for (const auto& worker : fleet)
        completed += worker->telemetry().units_completed;
      return completed;
    };
    wait_until([&] { return fleet_completed() >= 16u; });
    for (const auto& worker : fleet)
      EXPECT_EQ(worker->telemetry().units_failed, 0u);

    for (auto& worker : fleet) worker->stop();
    server.stop();
    core.shutdown();
  }
  // Deterministic mode: the 2-worker report — work counters included —
  // equals the 1-worker report exactly.
  ASSERT_EQ(reports.size(), 2u);
  expect_reports_identical(reports[0], reports[1]);
}

TEST(DistFabric, WorkerSpansMergeIntoOneCrossProcessTrace) {
  if (obs::kTracingCompiledOut) GTEST_SKIP() << "tracing compiled out";
  const BenchSpec spec = dist_spec(44, /*pos=*/8);
  const Network net = generate_benchmark(spec);

  // Only the buffered events matter here, so start from an empty collector;
  // the one submit below then owns every trace id in the dump.
  obs::clear_events();

  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  WorkerConfig worker_config;
  worker_config.port = server.port();
  worker_config.num_threads = 1;
  worker_config.idle_poll_ms = 5;
  worker_config.name = "tracer";
  DistWorker worker(worker_config);
  worker.start();

  // The driver waits (no inline participation): every unit runs on the
  // remote worker, whose spans ship back on complete_work.
  const ServerResponse response =
      core.submit(dist_request(net, dist_flow_options(spec, false, 20'000)))
          .get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;

  const std::string json = obs::chrome_trace_json();
  // The worker's ingested events form their own named process timeline next
  // to the local one, and the fabric spans frame them.
  // Worker wire ids are "<name>#<thread>"; thread 0 is the only one here.
  EXPECT_NE(json.find("\"name\":\"tracer#0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dist.unit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dist.lease\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dist.merge\""), std::string::npos);

  // Every span in the dump — local fabric bookkeeping and remote unit
  // executions alike — carries the one trace id minted for this submit.
  std::set<std::string> ids;
  const std::string key = "\"trace_id\":";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    const std::size_t begin = at + key.size();
    std::size_t end = begin;
    while (end < json.size() && std::isdigit(static_cast<unsigned char>(
                                    json[end])) != 0)
      ++end;
    ids.insert(json.substr(begin, end - begin));
  }
  EXPECT_EQ(ids.size(), 1u) << json.substr(0, 400);
  EXPECT_NE(*ids.begin(), "0");

  worker.stop();
  server.stop();
  core.shutdown();
}

TEST(DistFabric, DeadWorkerMidLeaseIsReissuedWithIdenticalReport) {
  const BenchSpec spec = dist_spec(42, /*pos=*/8);
  const Network net = generate_benchmark(spec);
  FlowOptions local_options = dist_flow_options(spec, false, 0);
  local_options.dist = {};
  const FlowReport reference = run_flow(net, local_options);

  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);

  // The driver waits; a ghost worker leases one unit over the real wire and
  // dies holding it.  The disconnect re-queues the unit, and after the stall
  // window the driver takes the whole job over inline — the report must not
  // show a trace of the dead worker.
  auto future =
      core.submit(dist_request(net, dist_flow_options(spec, false, 3'000)));
  {
    Client ghost = Client::connect_tcp("127.0.0.1", server.port());
    std::string grant;
    wait_until([&] {
      grant = ghost.request(format_lease_command("ghost"));
      return protocol::find_bool(grant, "work").value_or(false);
    });
  }  // connection closes with the lease outstanding

  const ServerResponse response = future.get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  expect_reports_identical(response.report, reference);
  EXPECT_GE(core.stats().units_reissued, 1u);

  server.stop();
  core.shutdown();
}

/// One report as a pinned line: the assignment, est/sim power as hex-floats
/// (every bit) and every search counter.
std::string pinned(const FlowReport& report) {
  std::ostringstream out;
  out << std::hexfloat << assignment_to_string(report.assignment)
      << " est=" << report.est_power << " sim=" << report.sim_power;
#define DOMINOSYN_PIN_COUNTER(rule, type, field, ...) \
  out << " " #field "=" << report.search.field;
  DOMINOSYN_SEARCH_COUNTERS(DOMINOSYN_PIN_COUNTER)
#undef DOMINOSYN_PIN_COUNTER
  return out.str();
}

/// The report a dist=0 submit of the same request gets.
FlowReport local_report(const BenchSpec& spec, FlowOptions options) {
  options.dist = {};
  return run_flow(generate_benchmark(spec), options);
}

TEST(DistFabric, ParticipatingCoreServesPinnedReports) {
  // What the fabric serves, pinned byte for byte: a core running units on
  // its own threads answers dist=1 MA and MP requests on an 8-PO circuit
  // (MP searches exactly on the fabric) and a 30-PO circuit (MP runs §4.1
  // from MA).  Min-area searches, exact or annealed, run in the core and
  // issue no units.  Every reply equals the request's dist=0 report.
  struct Case {
    BenchSpec spec;
    PhaseMode mode;
    bool on_fabric;  ///< the request's own search ships units
    const char* expected;
  };
  const Case cases[] = {
      {dist_spec(47, /*pos=*/8), PhaseMode::kMinArea, false,
       "+-++++++ est=0x1.e44c000000001p+6 sim=0x1.c1ef010b7e708p+6 "
       "evaluations=21 commits=0 commit_rescore_pairs=0 avg_update_nodes=0 "
       "nodes_expanded=28 subtrees_pruned=11 "
       "bound_tightness=0x1.b7fd36aed8a4p-1"},
      {dist_spec(47, /*pos=*/8), PhaseMode::kMinPower, true,
       "---+++++ est=0x1.e22cccccccccdp+6 sim=0x1.c1917829cbbfep+6 "
       "evaluations=27 commits=0 commit_rescore_pairs=0 avg_update_nodes=0 "
       "nodes_expanded=30 subtrees_pruned=14 "
       "bound_tightness=0x1.20202bd23d147p-1"},
      {dist_spec(48, /*pos=*/30, /*gates=*/300), PhaseMode::kMinArea, false,
       "+++++++++-+++-++++++++++++++++ est=0x1.9baacccccccccp+8 "
       "sim=0x1.7b7741691dba8p+8 evaluations=15062 commits=0 "
       "commit_rescore_pairs=0 avg_update_nodes=0 nodes_expanded=0 "
       "subtrees_pruned=0 bound_tightness=0x0p+0"},
      {dist_spec(48, /*pos=*/30, /*gates=*/300), PhaseMode::kMinPower, false,
       "-+--++--++---+++-+-++-+-++++-- est=0x1.55d6199999999p+8 "
       "sim=0x1.4708507507396p+8 evaluations=15557 commits=16 "
       "commit_rescore_pairs=358 avg_update_nodes=2193 nodes_expanded=0 "
       "subtrees_pruned=0 bound_tightness=0x0p+0"},
  };

  ServerCore core(ServerConfig{});
  for (const Case& c : cases) {
    FlowOptions options;
    options.mode = c.mode;
    options.sim.steps = 400;
    options.sim.warmup = 8;
    options.dist.enabled = true;
    options.dist.circuit.has_bench = true;
    options.dist.circuit.bench = c.spec;
    const std::uint64_t issued_before = core.stats().units_issued;
    const ServerResponse response =
        core.submit(dist_request(generate_benchmark(c.spec), options)).get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    EXPECT_EQ(pinned(response.report), c.expected)
        << c.spec.name << " " << to_string(c.mode);
    EXPECT_EQ(pinned(response.report), pinned(local_report(c.spec, options)))
        << c.spec.name << " " << to_string(c.mode);
    if (c.on_fabric) {
      EXPECT_GT(core.stats().units_issued, issued_before) << c.spec.name;
    } else {
      EXPECT_EQ(core.stats().units_issued, issued_before) << c.spec.name;
    }
  }
  core.shutdown();
}

/// Sits between DistWorkers and a daemon's TCP port, one thread per worker
/// connection: forwards each request line and its reply, passes the
/// replies to fetch_circuit through `rewrite`, can hold the next such reply
/// until release(), and keeps the errors workers report on complete_work.
class FabricProxy {
 public:
  using Rewrite = std::function<std::string(std::string)>;

  explicit FabricProxy(std::uint16_t upstream, Rewrite rewrite = {})
      : upstream_(upstream), rewrite_(std::move(rewrite)) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), length) != 0 ||
        ::listen(listener_, 8) != 0 ||
        ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr),
                      &length) != 0) {
      ::close(listener_);
      throw std::runtime_error("proxy listen failed");
    }
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~FabricProxy() {
    release();
    ::shutdown(listener_, SHUT_RDWR);
    accept_thread_.join();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& thread : threads_) thread.join();
    ::close(listener_);
  }

  FabricProxy(const FabricProxy&) = delete;
  FabricProxy& operator=(const FabricProxy&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  void hold_next_fetch() {
    const std::lock_guard<std::mutex> lock(mutex_);
    hold_ = true;
  }

  void release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    hold_ = false;
    released_ = true;
    released_cv_.notify_all();
  }

  [[nodiscard]] std::vector<std::string> unit_errors() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      const std::lock_guard<std::mutex> lock(mutex_);
      fds_.push_back(fd);
      threads_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    try {
      Client upstream = Client::connect_tcp("127.0.0.1", upstream_);
      std::string buffer;
      for (;;) {
        std::size_t newline;
        while ((newline = buffer.find('\n')) == std::string::npos) {
          char chunk[4096];
          const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
          if (got <= 0) throw std::runtime_error("worker closed");
          buffer.append(chunk, static_cast<std::size_t>(got));
        }
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        std::string reply = upstream.request(line);
        if (line.starts_with("fetch_circuit")) {
          if (rewrite_) reply = rewrite_(std::move(reply));
          std::unique_lock<std::mutex> lock(mutex_);
          if (hold_) {
            hold_ = false;
            released_cv_.wait(lock, [this] { return released_; });
          }
        } else if (line.starts_with("complete_work")) {
          const UnitResult result = parse_complete_tokens(split_tokens(line));
          const std::lock_guard<std::mutex> lock(mutex_);
          if (!result.ok) errors_.push_back(result.error);
        }
        reply += '\n';
        for (std::string_view rest = reply; !rest.empty();) {
          const ssize_t sent =
              ::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
          if (sent <= 0) throw std::runtime_error("worker gone");
          rest.remove_prefix(static_cast<std::size_t>(sent));
        }
      }
    } catch (const std::exception&) {
      // Either side went away; the worker reconnects, the daemon re-queues.
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase(fds_, fd);
    ::close(fd);
  }

  std::uint16_t upstream_;
  Rewrite rewrite_;
  int listener_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mutex_;  // guards everything below but the accept thread
  std::condition_variable released_cv_;
  bool hold_ = false;
  bool released_ = false;
  std::vector<int> fds_;
  std::vector<std::thread> threads_;
  std::vector<std::string> errors_;
  std::thread accept_thread_;
};

WorkerConfig worker_config_for(std::uint16_t port, const std::string& name,
                               unsigned threads = 1) {
  WorkerConfig config;
  config.port = port;
  config.num_threads = threads;
  config.idle_poll_ms = 5;
  config.name = name;
  return config;
}

/// Names of the spans that remote workers shipped: events of a process
/// other than the local one (pid 1) in obs::chrome_trace_json().
std::multiset<std::string> remote_span_names(const std::string& json) {
  std::multiset<std::string> names;
  const std::string key = "{\"name\":\"";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t begin = at + key.size();
    const std::string name = json.substr(begin, json.find('"', begin) - begin);
    const std::size_t pid = json.find("\"pid\":", begin) + 6;
    if (name != "process_name" && json.compare(pid, 2, "1,") != 0)
      names.insert(name);
  }
  return names;
}

TEST(DistFabric, RemoteWorkersServePinnedReports) {
  // What remote workers serve, pinned byte for byte: a core that only waits
  // hands every unit of dist=1 requests to two TCP workers — exact MP on an
  // 8-PO circuit.  The min-area searches, exact on the 8-PO circuit and
  // annealed on a 30-PO one, run in the core and issue no units.  Every
  // reply equals the request's dist=0 report.
  struct Case {
    BenchSpec spec;
    PhaseMode mode;
    bool on_fabric;  ///< the request's own search ships units
    const char* expected;
  };
  const Case cases[] = {
      {dist_spec(47, /*pos=*/8), PhaseMode::kMinArea, false,
       "+-++++++ est=0x1.e44c000000001p+6 sim=0x1.c1ef010b7e708p+6 "
       "evaluations=21 commits=0 commit_rescore_pairs=0 avg_update_nodes=0 "
       "nodes_expanded=28 subtrees_pruned=11 "
       "bound_tightness=0x1.b7fd36aed8a4p-1"},
      {dist_spec(47, /*pos=*/8), PhaseMode::kMinPower, true,
       "---+++++ est=0x1.e22cccccccccdp+6 sim=0x1.c1917829cbbfep+6 "
       "evaluations=27 commits=0 commit_rescore_pairs=0 avg_update_nodes=0 "
       "nodes_expanded=30 subtrees_pruned=14 "
       "bound_tightness=0x1.20202bd23d147p-1"},
      {dist_spec(48, /*pos=*/30, /*gates=*/300), PhaseMode::kMinArea, false,
       "+++++++++-+++-++++++++++++++++ est=0x1.9baacccccccccp+8 "
       "sim=0x1.7b7741691dba8p+8 evaluations=15062 commits=0 "
       "commit_rescore_pairs=0 avg_update_nodes=0 nodes_expanded=0 "
       "subtrees_pruned=0 bound_tightness=0x0p+0"},
  };

  obs::clear_events();
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  std::vector<std::unique_ptr<DistWorker>> fleet;
  for (const char* name : {"pin0", "pin1"}) {
    fleet.push_back(
        std::make_unique<DistWorker>(worker_config_for(server.port(), name)));
    fleet.back()->start();
  }

  for (const Case& c : cases) {
    FlowOptions options;
    options.mode = c.mode;
    options.sim.steps = 400;
    options.sim.warmup = 8;
    options.dist.enabled = true;
    options.dist.participate = false;
    options.dist.stall_takeover_ms = 20'000;
    options.dist.circuit.has_bench = true;
    options.dist.circuit.bench = c.spec;
    const std::uint64_t issued_before = core.stats().units_issued;
    const ServerResponse response =
        core.submit(dist_request(generate_benchmark(c.spec), options)).get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    EXPECT_EQ(pinned(response.report), c.expected)
        << c.spec.name << " " << to_string(c.mode);
    EXPECT_EQ(pinned(response.report), pinned(local_report(c.spec, options)))
        << c.spec.name << " " << to_string(c.mode);
    if (c.on_fabric) {
      EXPECT_GT(core.stats().units_issued, issued_before) << c.spec.name;
    } else {
      EXPECT_EQ(core.stats().units_issued, issued_before) << c.spec.name;
    }
  }
  for (const auto& worker : fleet)
    EXPECT_EQ(worker->telemetry().units_failed, 0u);

  // The workers score units on the coordinator's probabilities: their
  // shipped spans show units, never a probability stage.
  if (!obs::kTracingCompiledOut) {
    const std::multiset<std::string> remote =
        remote_span_names(obs::chrome_trace_json());
    EXPECT_GT(remote.count("dist.unit"), 0u);
    EXPECT_EQ(remote.count("flow.probs"), 0u);
  }

  for (auto& worker : fleet) worker->stop();
  server.stop();
  core.shutdown();
}

TEST(DistFabric, ThreadedWorkerServesConcurrentJobsOnDifferentCircuits) {
  // A two-thread worker fetches and prepares circuits outside its cache
  // lock: while one thread waits on a fetch held at the proxy, the other
  // still serves both concurrent jobs, each with its local answer.
  const BenchSpec specs[] = {dist_spec(51, /*pos=*/8),
                             dist_spec(52, /*pos=*/8)};
  std::vector<FlowReport> references;
  for (const BenchSpec& spec : specs) {
    FlowOptions local_options = dist_flow_options(spec, false, 0);
    local_options.dist = {};
    references.push_back(run_flow(generate_benchmark(spec), local_options));
  }

  ServerConfig config;
  config.num_workers = 2;  // both submits run at once
  ServerCore core(config);
  TransportConfig transport;
  SocketServer server(core, transport);
  FabricProxy proxy(server.port());
  proxy.hold_next_fetch();
  DistWorker worker(worker_config_for(proxy.port(), "pair", /*threads=*/2));
  worker.start();

  std::vector<std::future<ServerResponse>> futures;
  for (const BenchSpec& spec : specs)
    futures.push_back(core.submit(dist_request(
        generate_benchmark(spec), dist_flow_options(spec, false, 20'000))));
  bool served = true;
  for (auto& future : futures)
    served = served && future.wait_for(std::chrono::seconds(15)) ==
                           std::future_status::ready;
  proxy.release();
  ASSERT_TRUE(served) << "a held fetch stalled the worker's other thread";
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServerResponse response = futures[i].get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    expect_reports_identical(response.report, references[i],
                             /*counters=*/false);
  }
  worker.stop();
  EXPECT_EQ(worker.telemetry().units_failed, 0u);
  EXPECT_EQ(worker.telemetry().cached_circuits, 2u);
  server.stop();
  core.shutdown();
}

/// A circuit payload with its probability list edited: the first
/// probability replaced, or the last one dropped.
std::string with_first_prob(std::string payload, const std::string& value) {
  const std::size_t begin = payload.find("\"probs\":\"") + 9;
  payload.replace(begin, payload.find(',', begin) - begin, value);
  return payload;
}

std::string without_last_prob(std::string payload) {
  const std::size_t end = payload.rfind('"');
  const std::size_t comma = payload.rfind(',', end);
  payload.erase(comma, end - comma);
  return payload;
}

std::string with_field(std::string payload, const std::string& key,
                       const std::string& value) {
  const std::size_t begin = payload.find("\"" + key + "\":") + key.size() + 3;
  payload.replace(begin, payload.find(',', begin) - begin, value);
  return payload;
}

TEST(DistFabric, WorkerRejectsPayloadsThatDoNotFitAndTheSubmitServesLocally) {
  // A payload that does not fit the unit or the rebuilt network fails the
  // unit with an error that names the problem; the job fails and the submit
  // reruns locally, so it still serves the local report.
  const BenchSpec spec = dist_spec(49, /*pos=*/8);
  const Network net = generate_benchmark(spec);
  FlowOptions local_options = dist_flow_options(spec, false, 0);
  local_options.dist = {};
  const FlowReport reference = run_flow(net, local_options);

  struct Case {
    FabricProxy::Rewrite rewrite;
    const char* error;
  };
  const Case cases[] = {
      {[](std::string p) { return without_last_prob(std::move(p)); },
       "probabilities for"},
      {[](std::string p) { return with_first_prob(std::move(p), "nan"); },
       "probability nan of node 0 is not in [0, 1]"},
      {[](std::string p) { return with_first_prob(std::move(p), "1.5"); },
       "probability 1.5 of node 0 is not in [0, 1]"},
      {[](std::string p) { return with_field(std::move(p), "fingerprint", "7"); },
       "circuit payload for another circuit: unit fingerprint"},
      {[](std::string p) { return with_field(std::move(p), "bench_seed", "50"); },
       "circuit fingerprint mismatch: coordinator"},
  };
  for (const Case& c : cases) {
    ServerCore core(ServerConfig{});
    TransportConfig transport;
    SocketServer server(core, transport);
    FabricProxy proxy(server.port(), c.rewrite);
    DistWorker worker(worker_config_for(proxy.port(), "picky"));
    worker.start();

    const ServerResponse response =
        core.submit(dist_request(net, dist_flow_options(spec, false, 20'000)))
            .get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
    expect_reports_identical(response.report, reference);
    worker.stop();
    EXPECT_GE(worker.telemetry().units_failed, 1u) << c.error;
    const std::vector<std::string> errors = proxy.unit_errors();
    ASSERT_FALSE(errors.empty()) << c.error;
    EXPECT_NE(errors.front().find(c.error), std::string::npos)
        << errors.front();
    server.stop();
    core.shutdown();
  }
}

TEST(DistFabric, FetchCircuitRefusesUnknownAndFinishedJobs) {
  const BenchSpec spec = dist_spec(50, /*pos=*/8);
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  DistWorker worker(worker_config_for(server.port(), "fetcher"));
  worker.start();
  // The core's first job is job 1; once the submit is answered it is done.
  const ServerResponse response =
      core.submit(dist_request(generate_benchmark(spec),
                               dist_flow_options(spec, false, 20'000)))
          .get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  ASSERT_GT(core.stats().units_issued, 0u);

  Client probe = Client::connect_tcp("127.0.0.1", server.port());
  for (const std::uint64_t job : {1u, 999u}) {
    const std::string reply = probe.request(format_fetch_command("probe", job));
    EXPECT_EQ(protocol::find_bool(reply, "ok"), false) << reply;
    EXPECT_NE(reply.find("job " + std::to_string(job)), std::string::npos)
        << reply;
    EXPECT_THROW((void)parse_circuit_payload(reply), codec::Error);
  }
  worker.stop();
  server.stop();
  core.shutdown();
}

TEST(DistFabric, WorkerKeepsOnlyItsRecentCircuits) {
  // A long-lived worker serving distinct circuits holds at most
  // kCacheCapacity prepared ones.
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  WorkerConfig worker_config;
  worker_config.port = server.port();
  worker_config.num_threads = 1;
  worker_config.idle_poll_ms = 5;
  worker_config.name = "lru";
  DistWorker worker(worker_config);
  worker.start();

  for (std::uint64_t seed = 60; seed < 60 + DistWorker::kCacheCapacity + 1;
       ++seed) {
    const BenchSpec spec = dist_spec(seed, /*pos=*/4, /*gates=*/40);
    FlowOptions options = dist_flow_options(spec, false, 20'000);
    options.dist.frontier_depth = 1;
    const ServerResponse response =
        core.submit(dist_request(generate_benchmark(spec), options)).get();
    ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  }
  EXPECT_EQ(worker.telemetry().units_failed, 0u);
  EXPECT_EQ(worker.telemetry().cached_circuits, DistWorker::kCacheCapacity);

  worker.stop();
  server.stop();
  core.shutdown();
}

TEST(DistFabric, OptionsWorkersCannotReplaySearchLocally) {
  // Workers rebuild evaluators with default SeqProbOptions.  A session whose
  // fixpoint sweeps change its probabilities must not merge units scored on
  // theirs: it searches locally and serves the local report.
  BenchSpec spec = dist_spec(46, /*pos=*/8);
  spec.num_latches = 4;
  const Network net = generate_benchmark(spec);
  FlowOptions options = dist_flow_options(spec, false, 20'000);
  options.seqprob.fixpoint_sweeps = 4;

  FlowOptions local_options = options;
  local_options.dist = {};
  FlowSession local(net, local_options);
  FlowOptions replayed_options = local_options;
  replayed_options.seqprob = {};
  FlowSession replayed(net, replayed_options);
  ASSERT_NE(local.probabilities().node_probs,
            replayed.probabilities().node_probs);
  const FlowReport reference = local.report();

  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);
  WorkerConfig worker_config;
  worker_config.port = server.port();
  worker_config.num_threads = 1;
  worker_config.idle_poll_ms = 5;
  worker_config.name = "replayer";
  DistWorker worker(worker_config);
  worker.start();

  const ServerResponse response =
      core.submit(dist_request(net, options)).get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  EXPECT_EQ(core.stats().units_issued, 0u);
  expect_reports_identical(response.report, reference);

  worker.stop();
  server.stop();
  core.shutdown();
}

TEST(DistFabric, NonDrainShutdownResolvesDistWaitingSubmits) {
  const BenchSpec spec = dist_spec(43, /*pos=*/8);
  const Network net = generate_benchmark(spec);
  FlowOptions local_options = dist_flow_options(spec, false, 0);
  local_options.dist = {};
  const FlowReport reference = run_flow(net, local_options);

  ServerCore core(ServerConfig{});
  // No workers, no participation, and a stall window far beyond the test:
  // the flow would wait on the fabric forever.  Hold an outstanding lease so
  // shutdown exercises the cancel path with leased units in flight.
  auto future = core.submit(
      dist_request(net, dist_flow_options(spec, false, 600'000)));
  std::optional<DistCoordinator::Grant> held;
  wait_until([&] {
    held = core.coordinator().lease("straggler");
    return held.has_value();
  });

  // Non-drain shutdown cancels the job; the flow falls back to the local
  // search and the submit future still resolves with the exact local report.
  core.shutdown(/*drain=*/false);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServerResponse response = future.get();
  ASSERT_EQ(response.status, ServerStatus::kOk) << response.error_message;
  expect_reports_identical(response.report, reference);
  EXPECT_TRUE(core.coordinator().closed());
}

}  // namespace
}  // namespace dominosyn::dist
