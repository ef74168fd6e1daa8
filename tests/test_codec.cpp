/// Tests for the wire and journal codec (src/util/codec.hpp; docs/protocol.md,
/// "Encodings"):
///  * golden bytes for every encoder that reaches a socket or the journal —
///    work grants, the fetch_circuit command and circuit payloads, worker
///    commands, acks, submit/stats/job_status/error responses and the span
///    token — so a format only changes on purpose; each golden also decodes
///    and re-encodes to itself, and an older coordinator's B&B grant decodes
///    while its annealing grant does not,
///  * a journal written by earlier builds (whose unit lines carry the
///    circuit spec and the unit kind, and whose completions carry `evals=`)
///    replays without error: its B&B job is compacted to the current
///    records, its annealing job is dropped and its completions skipped,
///  * strict decoding: a value decodes only as a whole token its encoder
///    could have written,
///  * a fixed-seed loop of random bytes, doubles and u64s through every
///    encoder/decoder pair, and of random bytes into every decoder — the
///    start of an offline fuzzer.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dist/checkpoint.hpp"
#include "dist/workunit.hpp"
#include "flow/batch.hpp"
#include "obs/trace.hpp"
#include "server/protocol.hpp"
#include "util/codec.hpp"
#include "util/journal.hpp"

namespace dominosyn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// -- fixed inputs -------------------------------------------------------------

/// The circuit keys of the bench, blif and corpus units (named for the
/// circuit specs grants once carried).
dist::CircuitKey bench_key() {
  dist::CircuitKey key;
  key.pi_prob = 0.375;
  key.load_aware = false;
  key.fingerprint = (1ULL << 63) + 99;
  return key;
}

dist::CircuitKey blif_key() {
  dist::CircuitKey key;
  key.fingerprint = 5;
  return key;
}

dist::CircuitKey corpus_key() {
  dist::CircuitKey key;
  key.fingerprint = 0xfeedfacecafeULL;
  return key;
}

/// Inline BLIF with quotes, a backslash and control bytes.
constexpr std::string_view kBlif =
    ".model \"q\\\"\n.inputs a b\n.outputs f\n.names a b f\n"
    "11 1\x01\x1f\t\r\n.end\n";

/// Probabilities whose shortest round trip is long, short and subnormal.
const std::vector<double> kProbs = {0.0, 1.0, 0.1 + 0.2, 1.0 / 3.0, 5e-324};

dist::WorkUnit bench_unit() {
  dist::WorkUnit unit;
  unit.job_id = 9;
  unit.unit_id = 41;
  unit.by_power = false;
  unit.task = (1ULL << 60) + 77;
  unit.frontier_depth = 6;
  unit.bound_snapshot = 98.5;
  unit.node_budget = 1ULL << 21;
  unit.shared_bounds = true;
  unit.trace_id = (1ULL << 53) + 9;
  unit.circuit = bench_key();
  return unit;
}

/// A unit with a -inf bound.
dist::WorkUnit blif_unit() {
  dist::WorkUnit unit;
  unit.job_id = 2;
  unit.bound_snapshot = -kInf;
  unit.circuit = blif_key();
  return unit;
}

dist::WorkUnit corpus_unit() {
  dist::WorkUnit unit;
  unit.job_id = 7;
  unit.unit_id = 3;
  unit.task = 13;
  unit.frontier_depth = 4;
  unit.bound_snapshot = std::numeric_limits<double>::quiet_NaN();
  unit.circuit = corpus_key();
  return unit;
}

dist::UnitResult ok_result() {
  dist::UnitResult result;
  result.job_id = 7;
  result.unit_id = (1ULL << 62) + 3;
  result.metric = 123.4567890123456789;
  result.code = (1ULL << 61) + 12345;
  result.leaves = 11;
  result.nodes_expanded = 222;
  result.subtrees_pruned = 33;
  result.budget_tripped = true;
  result.spans_wire = "dist.unit,3,9007199254740993,1700000000000000,4321,2";
  return result;
}

dist::UnitResult failed_result() {
  dist::UnitResult result;
  result.job_id = 1;
  result.unit_id = 2;
  result.ok = false;
  result.error = "fingerprint mismatch: 50% off = bad\nsecond\x01line";
  return result;
}

ServerResponse ok_response() {
  ServerResponse response;
  FlowReport& r = response.report;
  r.circuit = "quote\"me \\ x";
  r.mode = PhaseMode::kMinPower;
  r.pis = 24;
  r.pos = 28;
  r.latches = 1;
  r.synth_gates = 12000;
  r.block_gates = 13001;
  r.boundary_inverters = 5;
  r.cells = 4242;
  r.area = 1234.5;
  r.est_power = 0.1 + 0.2;
  r.sim_power = 123.4567890123456789;
  r.sim_breakdown.domino_block = 100.25;
  r.sim_breakdown.input_inverters = 1e-7;
  r.sim_breakdown.output_inverters = 3.0;
  r.sim_breakdown.clock_load = 2.0 / 3.0;
  r.critical_delay = 17.75;
  r.timing_met = false;
  r.resize_moves = 3;
  r.assignment = {Phase::kPositive, Phase::kNegative, Phase::kNegative};
  r.negative_outputs = 2;
  r.search.evaluations = 610172;
  r.search.commits = 7;
  r.search.commit_rescore_pairs = 91;
  r.search.avg_update_nodes = 1234;
  r.search.nodes_expanded = 107802;
  r.search.subtrees_pruned = 44;
  r.search.bound_tightness = 0.9375;
  r.used_exact_bdd = false;
  r.seconds = 0.0123;
  ServerTelemetry& t = response.telemetry;
  t.cache_hit = true;
  t.rebuilt = {1, 2, 3, 4, 5, 6};
  t.queue_seconds = 0.25;
  t.service_seconds = 1.5e-3;
  t.degraded = true;
  return response;
}

// -- golden bytes -------------------------------------------------------------
// What the encoders wrote before the codec module existed — every dominod,
// worker and journal of an older build speaks exactly this — except where a
// comment says the format changed on purpose.

// Changed on purpose: grants name their circuit by key only; the spec
// (corpus, blif, bench_*) travels in the circuit payloads below.  Every
// unit is a B&B subtree, so grants carry no kind and no annealing fields.
constexpr std::string_view kGrantBenchTrace =
    "{\"ok\":true,\"work\":true,\"job\":9,\"unit\":41,\"by_power\":false,"
    "\"task\":1152921504606847053,\"frontier\":6,\"bound\":98.5,"
    "\"budget\":2097152,\"shared\":true,\"trace\":9007199254741001,"
    "\"pi_prob\":0.375,\"load_aware\":false,"
    "\"fingerprint\":9223372036854775907,\"incumbent\":42.25}";
constexpr std::string_view kGrantBlifNegInf =
    "{\"ok\":true,\"work\":true,\"job\":2,\"unit\":0,\"by_power\":true,"
    "\"task\":0,\"frontier\":0,\"bound\":\"-inf\",\"budget\":0,"
    "\"shared\":false,\"pi_prob\":0.5,\"load_aware\":true,\"fingerprint\":5,"
    "\"incumbent\":\"inf\"}";
constexpr std::string_view kGrantCorpusNan =
    "{\"ok\":true,\"work\":true,\"job\":7,\"unit\":3,\"by_power\":true,"
    "\"task\":13,\"frontier\":4,\"bound\":\"nan\",\"budget\":0,"
    "\"shared\":false,\"pi_prob\":0.5,\"load_aware\":true,"
    "\"fingerprint\":280298068560638,\"incumbent\":1}";
// What an older coordinator granted for bench_unit(), and for an annealing
// restart: the first decodes to kGrantBenchTrace's unit, the second to none.
constexpr std::string_view kLegacyGrantBnb =
    "{\"ok\":true,\"work\":true,\"job\":9,\"unit\":41,\"kind\":\"bnb\","
    "\"by_power\":false,\"task\":1152921504606847053,\"frontier\":6,"
    "\"bound\":98.5,\"budget\":2097152,\"aseed\":0,\"restart\":0,\"iters\":0,"
    "\"shared\":true,\"trace\":9007199254741001,\"pi_prob\":0.375,"
    "\"load_aware\":false,\"fingerprint\":9223372036854775907,"
    "\"incumbent\":42.25}";
constexpr std::string_view kLegacyGrantAnneal =
    "{\"ok\":true,\"work\":true,\"job\":2,\"unit\":0,\"kind\":\"anneal\","
    "\"by_power\":true,\"task\":0,\"frontier\":0,\"bound\":\"-inf\","
    "\"budget\":0,\"aseed\":11400714819323198485,\"restart\":3,\"iters\":2000,"
    "\"shared\":false,\"pi_prob\":0.5,\"load_aware\":true,\"fingerprint\":5,"
    "\"incumbent\":\"inf\"}";
constexpr std::string_view kFetch = "fetch_circuit worker=w%201%3d%25 job=9";
// Changed on purpose: the payload carries the evaluator's network as BLIF
// and no `corpus`, `bench` or `bench_*` fields.
constexpr std::string_view kCircuitBlif =
    "{\"ok\":true,\"pi_prob\":0.5,\"load_aware\":true,\"fingerprint\":5,"
    "\"blif\":\".model \\\"q\\\\\\\"\\n.inputs a b\\n.outputs f\\n.names a b "
    "f\\n11 1\\u0001\\u001f\\t\\r\\n.end\\n\","
    "\"probs\":\"0,1,0.30000000000000004,0.3333333333333333,5e-324\"}";
constexpr std::string_view kNoCircuit =
    "{\"ok\":false,\"error\":\"no circuit for job 12: unknown or finished\"}";
// Changed on purpose: no `evals=` and no `assignment=`, the annealing
// results' keys.
constexpr std::string_view kCompleteOk =
    "complete_work worker=w#0 job=7 unit=4611686018427387907 ok=1 "
    "metric=123.45678901234568 code=2305843009213706297 leaves=11 "
    "expanded=222 pruned=33 tripped=1 spans=dist.unit,3,"
    "9007199254740993,1700000000000000,4321,2";
constexpr std::string_view kCompleteFailed =
    "complete_work worker=worker%203 job=1 unit=2 ok=0 metric=inf "
    "code=18446744073709551615 leaves=0 expanded=0 pruned=0 tripped=0 "
    "error=fingerprint%20mismatch:%2050%25%20off%20%3d%20bad%0asecond%01line";
constexpr std::string_view kLease = "lease_work worker=w%201%3d%25";
constexpr std::string_view kSteal = "steal worker=w2";
constexpr std::string_view kPush =
    "push_incumbent worker=w2 job=12 metric=0.30000000000000004";
constexpr std::string_view kAckNoWork = "{\"ok\":true,\"work\":false}";
constexpr std::string_view kAckComplete =
    "{\"ok\":true,\"accepted\":true,\"incumbent\":0.5}";
constexpr std::string_view kAckCompleteInf =
    "{\"ok\":true,\"accepted\":false,\"incumbent\":\"inf\"}";
constexpr std::string_view kAckIncumbent = "{\"ok\":true,\"incumbent\":77.125}";
constexpr std::string_view kResponseOk =
    "{\"ok\":true,\"status\":\"ok\",\"report\":{\"circuit\":\"quote\\\"me \\\\ "
    "x\",\"mode\":\"min-power\",\"pis\":24,\"pos\":28,\"latches\":1,"
    "\"synth_gates\":12000,\"block_gates\":13001,\"boundary_inverters\":5,"
    "\"cells\":4242,\"area\":1234.5,\"est_power\":0.30000000000000004,"
    "\"sim_power\":123.45678901234568,\"sim_breakdown\":{\"domino_block\":100.2"
    "5,\"input_inverters\":1e-07,\"output_inverters\":3,"
    "\"clock_load\":0.6666666666666666},\"critical_delay\":17.75,"
    "\"timing_met\":false,\"resize_moves\":3,\"assignment\":\"+--\","
    "\"negative_outputs\":2,\"search_evaluations\":610172,\"search_commits\":7,"
    "\"commit_rescore_pairs\":91,\"avg_update_nodes\":1234,"
    "\"search_nodes_expanded\":107802,\"search_subtrees_pruned\":44,"
    "\"search_bound_tightness\":0.9375,\"used_exact_bdd\":false,"
    "\"equivalence_ok\":true,\"seconds\":0.0123},"
    "\"telemetry\":{\"cache_hit\":true,\"stage_builds\":{\"synth\":1,"
    "\"probs\":2,\"context\":3,\"assign\":4,\"map\":5,\"measure\":6},"
    "\"queue_seconds\":0.25,\"service_seconds\":0.0015,\"degraded\":true}}";
constexpr std::string_view kResponseRejected =
    "{\"ok\":false,\"status\":\"rejected_queue_full\",\"error\":\"admission "
    "queue at capacity (4)\\u0001\"}";
constexpr std::string_view kStats =
    "{\"ok\":true,\"server\":{\"submitted\":1,\"accepted\":2,\"completed\":3,"
    "\"rejected_queue_full\":4,\"rejected_deadline\":5,\"rejected_shutdown\":6,"
    "\"errors\":7,\"queued_now\":8,\"running_now\":9,\"search_commits\":10,"
    "\"commit_rescore_pairs\":11,\"avg_update_nodes\":12,"
    "\"exhaustive_searches\":13,\"search_nodes_expanded\":14,"
    "\"search_subtrees_pruned\":15,\"bound_tightness_sum\":1.8125,"
    "\"units_issued\":16,\"units_stolen\":17,\"units_reissued\":18,"
    "\"units_recovered\":20,\"incumbent_broadcasts\":19,\"retried_submits\":21,"
    "\"reattached_submits\":22,\"degraded_responses\":23,"
    "\"workers_quarantined\":24,\"quarantine_probes\":25,"
    "\"faults_injected\":26},\"hist\":{\"queue_us\":{\"count\":3,\"sum\":4100,"
    "\"p50\":2048,\"p95\":2048,\"p99\":2048,\"buckets\":[[0,1],[12,2]]},"
    "\"service_us\":{\"count\":0,\"sum\":0,\"p50\":0,\"p95\":0,\"p99\":0,"
    "\"buckets\":[]}},\"cache\":{\"size\":0,\"capacity\":4,\"hits\":0,"
    "\"misses\":0,\"evictions\":0,\"invalidations\":0}}";
constexpr std::string_view kJobStatusRunning =
    "{\"ok\":true,\"state\":\"running\"}";
constexpr std::string_view kError =
    "{\"ok\":false,\"status\":\"bad_request\",\"error\":\"unknown command "
    "'x\\\"y'\\t\\u0002\"}";
constexpr std::string_view kSpans =
    "dist.unit,3,42,1700000000123456,977,7;bad_name___x,1,0,0,0,0";
constexpr std::string_view kJournal[] = {
    "open job=7 rid=rid%207%25%3dx lease_ms=30000 units=2",
    "unit {\"ok\":true,\"work\":true,\"job\":7,\"unit\":0,\"kind\":\"bnb\","
    "\"by_power\":true,\"task\":13,\"frontier\":4,\"bound\":98.5,\"budget\":0,"
    "\"aseed\":0,\"restart\":0,\"iters\":0,\"shared\":false,\"pi_prob\":0.5,"
    "\"load_aware\":true,\"fingerprint\":280298068560638,\"corpus\":\"apex7\","
    "\"bench\":false,\"incumbent\":\"inf\"}",
    "unit {\"ok\":true,\"work\":true,\"job\":7,\"unit\":1,\"kind\":\"bnb\","
    "\"by_power\":true,\"task\":13,\"frontier\":4,\"bound\":98.5,\"budget\":0,"
    "\"aseed\":0,\"restart\":0,\"iters\":0,\"shared\":false,\"pi_prob\":0.5,"
    "\"load_aware\":true,\"fingerprint\":280298068560638,\"corpus\":\"apex7\","
    "\"bench\":false,\"incumbent\":\"inf\"}",
    "complete_work worker=journal job=7 unit=1 ok=1 metric=123.45678901234568 "
    "code=2305843009213706297 assignment=+-+- leaves=11 expanded=222 pruned=33 "
    "evals=666 tripped=1",
    "incumbent job=7 metric=42.5",
    "open job=8 rid= lease_ms=1000 units=1",
    "unit {\"ok\":true,\"work\":true,\"job\":8,\"unit\":0,\"kind\":\"anneal\","
    "\"by_power\":true,\"task\":0,\"frontier\":0,\"bound\":\"-inf\","
    "\"budget\":0,\"aseed\":11400714819323198485,\"restart\":3,\"iters\":2000,"
    "\"shared\":false,\"pi_prob\":0.5,\"load_aware\":true,\"fingerprint\":5,"
    "\"blif\":\".model \\\"q\\\\\\\"\\n.inputs a b\\n.outputs f\\n.names a b "
    "f\\n11 1\\u0001\\u001f\\t\\r\\n.end\\n\",\"bench\":false,"
    "\"incumbent\":\"inf\"}",
    "complete_work worker=journal job=8 unit=0 ok=0 metric=inf "
    "code=18446744073709551615 leaves=0 expanded=0 pruned=0 evals=0 tripped=0 "
    "error=fingerprint%20mismatch:%2050%25%20off%20%3d%20bad%0asecond%01line",
    "finish job=8 failed=0",
};
/// kJournal as boot compaction rewrites it.  Job 7's unit lines become
/// slim grants; its completion carries the annealing results' keys
/// (`assignment=`, `evals=`), so it is skipped and unit 1 reruns.  Job 8 is
/// an annealing restart: no unit of it replays, so the job is dropped.
constexpr std::string_view kJournalCompacted[] = {
    "open job=7 rid=rid%207%25%3dx lease_ms=30000 units=2",
    "unit {\"ok\":true,\"work\":true,\"job\":7,\"unit\":0,\"by_power\":true,"
    "\"task\":13,\"frontier\":4,\"bound\":98.5,\"budget\":0,"
    "\"shared\":false,\"pi_prob\":0.5,\"load_aware\":true,"
    "\"fingerprint\":280298068560638,\"incumbent\":\"inf\"}",
    "unit {\"ok\":true,\"work\":true,\"job\":7,\"unit\":1,\"by_power\":true,"
    "\"task\":13,\"frontier\":4,\"bound\":98.5,\"budget\":0,"
    "\"shared\":false,\"pi_prob\":0.5,\"load_aware\":true,"
    "\"fingerprint\":280298068560638,\"incumbent\":\"inf\"}",
    "incumbent job=7 metric=42.5",
};

TEST(CodecGolden, WorkGrantsKeepTheirBytes) {
  EXPECT_EQ(dist::format_work_grant(bench_unit(), 42.25), kGrantBenchTrace);
  EXPECT_EQ(dist::format_work_grant(blif_unit(), kInf), kGrantBlifNegInf);
  EXPECT_EQ(dist::format_work_grant(corpus_unit(), 1.0), kGrantCorpusNan);
  // Each golden decodes to a unit that encodes back to the same bytes.
  for (const std::string_view golden :
       {kGrantBenchTrace, kGrantBlifNegInf, kGrantCorpusNan}) {
    const auto grant = dist::parse_work_grant(std::string(golden));
    ASSERT_TRUE(grant.has_value()) << golden;
    EXPECT_EQ(dist::format_work_grant(grant->unit, grant->incumbent), golden);
  }
  // An older coordinator's B&B grant is the same unit; its annealing grant
  // is none.
  const auto legacy = dist::parse_work_grant(std::string(kLegacyGrantBnb));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(dist::format_work_grant(legacy->unit, legacy->incumbent),
            kGrantBenchTrace);
  EXPECT_THROW((void)dist::parse_work_grant(std::string(kLegacyGrantAnneal)),
               codec::Error);
}

TEST(CodecGolden, FetchCircuitKeepsItsBytes) {
  EXPECT_EQ(dist::format_fetch_command("w 1=%", 9), kFetch);
  EXPECT_EQ(dist::format_circuit_payload(blif_key(), kBlif, kProbs),
            kCircuitBlif);
  EXPECT_EQ(dist::format_no_circuit(12), kNoCircuit);
  // The payload decodes to a key, BLIF and probabilities that encode back
  // to the same bytes.
  const dist::CircuitPayload payload =
      dist::parse_circuit_payload(std::string(kCircuitBlif));
  EXPECT_EQ(payload.key, blif_key());
  EXPECT_EQ(payload.blif, kBlif);
  EXPECT_EQ(
      dist::format_circuit_payload(payload.key, payload.blif, payload.probs),
      kCircuitBlif);
  EXPECT_THROW((void)dist::parse_circuit_payload(std::string(kNoCircuit)),
               codec::Error);
  // A payload with a flipped byte decodes or is rejected; it never crashes.
  std::mt19937_64 rng(0xfe7c);
  for (int i = 0; i < 3000; ++i) {
    std::string mutated(kCircuitBlif);
    mutated[rng() % mutated.size()] = static_cast<char>(rng());
    try {
      (void)dist::parse_circuit_payload(mutated);
    } catch (const codec::Error&) {
    }
  }

  std::istringstream in(std::string(kFetch) + "\n");
  const auto command = protocol::read_command(in);
  ASSERT_TRUE(command.has_value());
  EXPECT_EQ(command->kind, protocol::CommandKind::kFetchCircuit);
  EXPECT_EQ(command->worker, "w 1=%");
  EXPECT_EQ(command->job_id, 9u);
  std::istringstream jobless("fetch_circuit worker=w\n");
  EXPECT_THROW((void)protocol::read_command(jobless), protocol::ProtocolError);
}

TEST(CodecGolden, WorkerCommandsAndAcksKeepTheirBytes) {
  EXPECT_EQ(dist::format_complete_command("w#0", ok_result()), kCompleteOk);
  EXPECT_EQ(dist::format_complete_command("worker 3", failed_result()),
            kCompleteFailed);
  EXPECT_EQ(dist::format_lease_command("w 1=%"), kLease);
  EXPECT_EQ(dist::format_steal_command("w2"), kSteal);
  EXPECT_EQ(dist::format_push_command("w2", 12, 0.1 + 0.2), kPush);
  EXPECT_EQ(dist::format_no_work(), kAckNoWork);
  EXPECT_EQ(dist::format_complete_ack(true, 0.5), kAckComplete);
  EXPECT_EQ(dist::format_complete_ack(false, kInf), kAckCompleteInf);
  EXPECT_EQ(dist::format_incumbent_ack(77.125), kAckIncumbent);

  for (const auto& [worker, golden] :
       {std::pair{"w#0", kCompleteOk}, {"worker 3", kCompleteFailed}}) {
    const dist::UnitResult result =
        dist::parse_complete_tokens(codec::split_tokens(golden));
    EXPECT_EQ(dist::format_complete_command(worker, result), golden);
  }
  EXPECT_EQ(dist::parse_incumbent(std::string(kAckCompleteInf)), kInf);
}

TEST(CodecGolden, ProtocolResponsesKeepTheirBytes) {
  EXPECT_EQ(protocol::format_response(ok_response()), kResponseOk);
  ServerResponse rejected;
  rejected.status = ServerStatus::kRejectedQueueFull;
  rejected.error_message = "admission queue at capacity (4)\x01";
  EXPECT_EQ(protocol::format_response(rejected), kResponseRejected);

  ServerCore::Stats stats;
  std::size_t next = 1;
  for (std::size_t* field :
       {&stats.submitted, &stats.accepted, &stats.completed,
        &stats.rejected_queue_full, &stats.rejected_deadline,
        &stats.rejected_shutdown, &stats.errors, &stats.queued_now,
        &stats.running_now, &stats.search_commits,
        &stats.commit_rescore_pairs, &stats.avg_update_nodes,
        &stats.exhaustive_searches, &stats.search_nodes_expanded,
        &stats.search_subtrees_pruned, &stats.units_issued,
        &stats.units_stolen, &stats.units_reissued,
        &stats.incumbent_broadcasts, &stats.units_recovered,
        &stats.retried_submits, &stats.reattached_submits,
        &stats.degraded_responses, &stats.workers_quarantined,
        &stats.quarantine_probes, &stats.faults_injected})
    *field = next++;
  stats.bound_tightness_sum = 1.8125;
  stats.queue_us.count = 3;
  stats.queue_us.sum = 4100;
  stats.queue_us.buckets[0] = 1;
  stats.queue_us.buckets[12] = 2;
  const SessionCache cache(4);
  EXPECT_EQ(protocol::format_stats(stats, cache), kStats);

  ServerCore::JobStatusResult status;
  status.state = ServerCore::JobStatusResult::State::kRunning;
  EXPECT_EQ(protocol::format_job_status(status), kJobStatusRunning);
  status.state = ServerCore::JobStatusResult::State::kDone;
  status.response = ok_response();
  EXPECT_EQ(protocol::format_job_status(status),
            "{\"state\":\"done\"," + std::string(kResponseOk.substr(1)));
  EXPECT_EQ(protocol::format_error("unknown command 'x\"y'\t\x02"), kError);
}

TEST(CodecGolden, SpanTokenKeepsItsBytes) {
  std::vector<obs::TraceEvent> events(2);
  std::strcpy(events[0].name, "dist.unit");
  events[0].trace_id = 42;
  events[0].start_us = 1'700'000'000'123'456ull;
  events[0].dur_us = 977;
  events[0].tid = 7;
  events[0].cat = 3;
  std::strcpy(events[1].name, "bad name,=;x");  // separators sanitized
  events[1].cat = 1;
  EXPECT_EQ(obs::spans_to_wire(events), kSpans);
  EXPECT_EQ(obs::spans_to_wire(obs::spans_from_wire(kSpans)), kSpans);
}

TEST(CodecJournal, EarlierFormatReplaysAndCompactsToTheCurrentRecords) {
  const std::string dir = testing::TempDir() + "dominosyn_codec_journal";
  const auto wipe = [&dir] {
    std::remove((dir + "/journal.djl").c_str());
    std::remove((dir + "/snapshot.djl").c_str());
    ::rmdir(dir.c_str());
  };
  wipe();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  {
    std::ofstream out(dir + "/journal.djl", std::ios::binary);
    for (const std::string_view record : kJournal)
      out << journal::frame_record(record);
  }
  std::vector<dist::checkpoint::RecoveredJob> jobs;
  {
    dist::checkpoint::CheckpointLog log(dir);
    EXPECT_EQ(log.replay_stats().records, std::size(kJournal));
    EXPECT_EQ(log.replay_stats().jobs, 1u);
    EXPECT_EQ(log.replay_stats().completed_units, 0u);
    jobs = log.take_recovered();
  }
  // Boot compaction rewrote the replayed state as the snapshot.  A legacy
  // B&B unit line decodes to exactly the unit its slim line describes; its
  // circuit spec, kind and annealing fields are ignored.
  const journal::ScanResult snapshot =
      journal::scan_file(dir + "/snapshot.djl");
  wipe();
  ASSERT_EQ(snapshot.records.size(), std::size(kJournalCompacted));
  for (std::size_t i = 0; i < snapshot.records.size(); ++i)
    EXPECT_EQ(snapshot.records[i], kJournalCompacted[i]) << "record " << i;
  for (const std::size_t i : {1, 2}) {
    const auto legacy =
        dist::parse_work_grant(std::string(kJournal[i].substr(5)));
    ASSERT_TRUE(legacy.has_value()) << "record " << i;
    EXPECT_EQ("unit " + dist::format_work_grant(legacy->unit, kInf),
              kJournalCompacted[i]);
  }

  ASSERT_EQ(jobs.size(), 1u);
  const dist::checkpoint::RecoveredJob& live = jobs[0];
  EXPECT_EQ(live.journal_job_id, 7u);
  EXPECT_EQ(live.rid, "rid 7%=x");
  EXPECT_EQ(live.lease_timeout_ms, 30'000u);
  ASSERT_EQ(live.units.size(), 2u);
  EXPECT_EQ(live.units[1].task, 13u);
  EXPECT_EQ(live.units[1].bound_snapshot, 98.5);
  EXPECT_EQ(live.units[1].circuit, corpus_key());
  EXPECT_EQ(live.completed(), 0u);
  EXPECT_EQ(live.incumbent, 42.5);
  EXPECT_FALSE(live.finished);
}

// -- scalar encodings ---------------------------------------------------------

TEST(CodecScalars, DoublesAndTextRoundTrip) {
  for (const double value : {0.0, 1.0, -2.5, 123.4567890123456789, 1e-300,
                             kInf, -kInf}) {
    EXPECT_EQ(codec::parse_double(codec::encode_double(value)), value);
  }
  EXPECT_TRUE(std::isnan(*codec::parse_double(
      codec::encode_double(std::numeric_limits<double>::quiet_NaN()))));

  const std::string nasty = "a b\tc\n% = %% ==\x01\x7f plain";
  const std::string encoded = codec::percent_encode(nasty);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(encoded.find('='), std::string::npos);
  EXPECT_EQ(codec::percent_decode(encoded), nasty);
}

TEST(CodecScalars, DecodersAcceptOnlyWholeTokens) {
  // A '%' decodes only with two hex digits after it; strtol-style signs
  // and blanks (`%-1`, `%+f`, `% f`) stay literal like `%zz` does.
  EXPECT_EQ(codec::percent_decode("a%-1b"), "a%-1b");
  EXPECT_EQ(codec::percent_decode("%+f"), "%+f");
  EXPECT_EQ(codec::percent_decode("% f"), "% f");
  EXPECT_EQ(codec::percent_decode("%zz%4"), "%zz%4");
  EXPECT_EQ(codec::percent_decode("%41%7e%7E"), "A~~");

  EXPECT_EQ(codec::parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "18446744073709551616", "-1", "+1", " 1", "1 ",
                          "1x", "0x10", "1e3"})
    EXPECT_EQ(codec::parse_u64(bad), std::nullopt) << bad;
  for (const char* bad : {"", "3.5junk", "+1", " 1", "1 ", "0x1p3", "1e400"})
    EXPECT_EQ(codec::parse_double(bad), std::nullopt) << bad;
  EXPECT_EQ(codec::narrow_u32("k", 4294967295u), 4294967295u);
  EXPECT_THROW((void)codec::narrow_u32("k", 4294967297u), codec::Error);
  EXPECT_EQ(codec::parse_hex32("0088739A"), 0x0088739au);
  for (const char* bad : {"", "88739a", "088739a ", "+088739a", "0x88739a",
                          "-0000001", "00g8739a", "0088739a0"})
    EXPECT_EQ(codec::parse_hex32(bad), std::nullopt) << bad;

  const std::vector<std::string_view> tokens =
      codec::split_tokens("  verb\tk=v  flag=2 empty=\r\n");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(codec::find_field(tokens, "k").value, "v");
  EXPECT_EQ(codec::find_field(tokens, "empty").value, "");
  EXPECT_THROW((void)codec::decode_flag(codec::find_field(tokens, "flag")),
               codec::Error);
  EXPECT_THROW((void)codec::find_field(tokens, "absent"), codec::Error);
  EXPECT_THROW((void)codec::split_field("verb", "=v"), codec::Error);
  EXPECT_THROW((void)codec::split_field("verb", "novalue"), codec::Error);
  EXPECT_EQ(codec::split_positional("a,,b,", ','),
            (std::vector<std::string_view>{"a", "", "b", ""}));
  EXPECT_EQ(codec::split_positional("", ',').size(), 1u);

  // JSON values: whole tokens, non-finite doubles only quoted.
  const std::string json =
      R"({"a":12x,"b":1.5,"c":"inf","d":"1.5","e":inf,"f":truex,"g":"\q"})";
  EXPECT_EQ(codec::find_uint64(json, "a"), std::nullopt);
  EXPECT_EQ(codec::find_number(json, "a"), std::nullopt);
  EXPECT_EQ(codec::find_number(json, "b"), 1.5);
  EXPECT_EQ(codec::find_number(json, "c"), kInf);
  EXPECT_EQ(codec::find_number(json, "d"), std::nullopt);
  EXPECT_EQ(codec::find_number(json, "e"), std::nullopt);
  EXPECT_EQ(codec::find_bool(json, "f"), std::nullopt);
  EXPECT_EQ(codec::find_string(json, "g"), std::nullopt);
}

TEST(CodecFuzz, RandomValuesRoundTripThroughEveryPair) {
  std::mt19937_64 rng(0x5eed);
  const auto random_text = [&rng] {
    std::string text(rng() % 40, '\0');
    for (char& c : text) c = static_cast<char>(rng());
    return text;
  };
  const std::vector<double> specials = {
      0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,  // subnormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  const auto same = [](double a, double b) {
    return std::isnan(a) ? std::isnan(b)
                         : std::bit_cast<std::uint64_t>(a) ==
                               std::bit_cast<std::uint64_t>(b);
  };

  for (int i = 0; i < 4000; ++i) {
    const std::string text = random_text();
    double d = std::bit_cast<double>(rng());
    if (i % 4 == 0) d = specials[rng() % specials.size()];
    if (i % 4 == 1)  // a random subnormal
      d = std::bit_cast<double>(rng() & 0x800fffffffffffffULL);
    const std::uint64_t u = rng() >> (rng() % 64);

    const std::string encoded = codec::percent_encode(text);
    ASSERT_EQ(encoded.find_first_of(" \t\n\v\f\r="), std::string::npos);
    ASSERT_EQ(codec::percent_decode(encoded), text);
    ASSERT_TRUE(same(*codec::parse_double(codec::encode_double(d)), d))
        << codec::encode_double(d);
    ASSERT_EQ(codec::parse_u64(std::to_string(u)), u);
    const auto crc = static_cast<std::uint32_t>(u);
    ASSERT_EQ(codec::parse_hex32(codec::encode_hex32(crc)), crc);

    const std::string line = "verb t=" + encoded +
                             " d=" + codec::encode_double(d) +
                             " u=" + std::to_string(u);
    const std::vector<std::string_view> tokens = codec::split_tokens(line);
    ASSERT_EQ(tokens.size(), 4u) << line;
    ASSERT_EQ(codec::percent_decode(codec::find_field(tokens, "t").value),
              text);
    ASSERT_TRUE(same(codec::decode_double(codec::find_field(tokens, "d")), d));
    ASSERT_EQ(codec::decode_u64(codec::find_field(tokens, "u")), u);

    std::string json = "{";
    codec::append_field(json, "t", std::string_view(text));
    codec::append_field(json, "d", d);
    codec::append_field(json, "u", u, /*comma=*/false);
    json += '}';
    ASSERT_EQ(codec::find_string(json, "t"), text) << json;
    ASSERT_TRUE(same(*codec::find_number(json, "d"), d)) << json;
    ASSERT_EQ(codec::find_uint64(json, "u"), u) << json;

    // Mutations: arbitrary bytes into every decoder never crash, and a
    // single flipped byte in a line is either rejected or still decodes.
    (void)codec::parse_u64(text);
    (void)codec::parse_double(text);
    (void)codec::percent_decode(text);
    (void)codec::split_tokens(text);
    (void)codec::split_positional(text, ',');
    (void)codec::parse_hex32(text.substr(0, 8));
    std::string mutated = json;
    mutated[rng() % mutated.size()] = static_cast<char>(rng());
    for (const char* key : {"t", "d", "u"}) {
      (void)codec::find_string(mutated, key);
      (void)codec::find_number(mutated, key);
      (void)codec::find_uint64(mutated, key);
      (void)codec::find_bool(mutated, key);
    }
    (void)obs::spans_from_wire(text);
  }
}

}  // namespace
}  // namespace dominosyn
