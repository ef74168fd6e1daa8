/// Tests for durable job state (docs/robustness.md): the checkpoint log's
/// replay/compaction behaviour (src/dist/checkpoint.hpp), coordinator
/// adoption of journaled unit results (partial resume must produce the
/// bit-identical merged result with units_recovered > 0; an older build's
/// annealing job replays without error and is never adopted), ServerCore
/// re-attach (`retry=` submits resume instead of redo; job_status states),
/// and the cold-cache/warm-journal restart path: one restarted daemon
/// serving concurrent re-attaches of one rid builds its session exactly
/// once.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "dist/workunit.hpp"
#include "flow/flow.hpp"
#include "server/core.hpp"
#include "util/journal.hpp"

namespace dominosyn::dist {
namespace {

/// Per-test journal directory under gtest's temp dir; best-effort cleanup.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(testing::TempDir() + "dominosyn_recovery_" + name) {
    wipe();
  }
  ~ScratchDir() { wipe(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void wipe() const {
    std::remove((path_ + "/journal.djl").c_str());
    std::remove((path_ + "/snapshot.djl").c_str());
    ::rmdir(path_.c_str());
  }
  std::string path_;
};

/// Synthetic B&B units — enough distinct fields that adoption's
/// units-compatible check is meaningfully exercised.
std::vector<WorkUnit> make_units(std::size_t count) {
  std::vector<WorkUnit> units(count);
  for (std::size_t i = 0; i < count; ++i) {
    WorkUnit& unit = units[i];
    unit.by_power = true;
    unit.task = (i << 3) | 0x5;
    unit.frontier_depth = 3;
    unit.bound_snapshot = 123.5;
    unit.node_budget = 1 << 16;
    unit.circuit.pi_prob = 0.5;
    unit.circuit.fingerprint = 0xfeedfacecafeULL;
  }
  return units;
}

/// A unit's result as a pure function of its description — the property the
/// recovery design leans on (docs/robustness.md).
UnitResult fake_result(const WorkUnit& unit) {
  UnitResult result;
  result.job_id = unit.job_id;
  result.unit_id = unit.unit_id;
  result.metric = 50.0 + static_cast<double>(unit.task);
  result.code = unit.task * 3 + 1;
  result.leaves = unit.task + 2;
  result.nodes_expanded = unit.task * 10 + 1;
  result.subtrees_pruned = unit.task;
  return result;
}

/// Drains the coordinator's queue for `worker`, answering each grant with
/// fake_result; returns the number of units served.
std::size_t serve_all(DistCoordinator& coordinator, const std::string& worker,
                      std::size_t at_most =
                          std::numeric_limits<std::size_t>::max()) {
  std::size_t served = 0;
  while (served < at_most) {
    const auto grant = coordinator.lease(worker);
    if (!grant) break;
    (void)coordinator.complete(worker, fake_result(grant->unit));
    ++served;
  }
  return served;
}

void expect_unit_results_equal(const std::vector<UnitResult>& a,
                               const std::vector<UnitResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].unit_id, b[i].unit_id) << "unit " << i;
    EXPECT_EQ(a[i].metric, b[i].metric) << "unit " << i;
    EXPECT_EQ(a[i].code, b[i].code) << "unit " << i;
    EXPECT_EQ(a[i].leaves, b[i].leaves) << "unit " << i;
    EXPECT_EQ(a[i].nodes_expanded, b[i].nodes_expanded) << "unit " << i;
    EXPECT_EQ(a[i].subtrees_pruned, b[i].subtrees_pruned) << "unit " << i;
  }
}

TEST(CheckpointLog, ReplaysOpenCompletesAndIncumbent) {
  ScratchDir dir("replay");
  const std::vector<WorkUnit> units = make_units(4);
  {
    checkpoint::CheckpointLog log(dir.path());
    std::vector<WorkUnit> numbered = units;
    for (std::size_t i = 0; i < numbered.size(); ++i) {
      numbered[i].job_id = 7;
      numbered[i].unit_id = i;
    }
    log.record_open(7, "rid-replay", 30'000, numbered);
    log.record_complete(fake_result(numbered[0]));
    log.record_complete(fake_result(numbered[2]));
    log.record_incumbent(7, 42.0);
  }
  checkpoint::CheckpointLog log(dir.path());
  const checkpoint::ReplayStats& stats = log.replay_stats();
  EXPECT_EQ(stats.jobs, 1u);
  EXPECT_EQ(stats.live_jobs, 1u);
  EXPECT_EQ(stats.units, 4u);
  EXPECT_EQ(stats.completed_units, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(log.max_job_id(), 7u);

  const auto recovered = log.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  const checkpoint::RecoveredJob& job = recovered[0];
  EXPECT_EQ(job.journal_job_id, 7u);
  EXPECT_EQ(job.rid, "rid-replay");
  EXPECT_EQ(job.lease_timeout_ms, 30'000u);
  ASSERT_EQ(job.units.size(), 4u);
  EXPECT_EQ(job.completed(), 2u);
  ASSERT_TRUE(job.results[0].has_value());
  EXPECT_FALSE(job.results[1].has_value());
  ASSERT_TRUE(job.results[2].has_value());
  EXPECT_EQ(job.results[0]->metric, fake_result(job.units[0]).metric);
  EXPECT_EQ(job.results[2]->code, fake_result(job.units[2]).code);
  EXPECT_EQ(job.incumbent, 42.0);
  EXPECT_FALSE(job.finished);
  // Units round-tripped the grant codec byte-exactly.
  EXPECT_EQ(job.units[3].task, units[3].task);
  EXPECT_EQ(job.units[3].circuit.fingerprint, units[3].circuit.fingerprint);
  // take_recovered is destructive.
  EXPECT_TRUE(log.take_recovered().empty());
}

TEST(CheckpointLog, BootCompactionTruncatesJournalIntoSnapshot) {
  ScratchDir dir("compact");
  std::vector<WorkUnit> units = make_units(2);
  for (std::size_t i = 0; i < units.size(); ++i) {
    units[i].job_id = 1;
    units[i].unit_id = i;
  }
  {
    checkpoint::CheckpointLog log(dir.path());
    log.record_open(1, "rid-c", 10'000, units);
    log.record_complete(fake_result(units[0]));
    EXPECT_GT(log.journal_records(), 0u);
  }
  // Reopen: replay compacts the journal into the snapshot, so appends never
  // land behind a (potential) torn tail.
  {
    checkpoint::CheckpointLog log(dir.path());
    EXPECT_EQ(log.journal_records(), 0u);
    const journal::ScanResult journal = journal::scan_file(log.journal_path());
    EXPECT_TRUE(journal.records.empty());
    const journal::ScanResult snap = journal::scan_file(log.snapshot_path());
    EXPECT_GE(snap.records.size(), 3u);  // open + 2 units + complete
  }
  // And a third open still sees the full state, now from the snapshot.
  checkpoint::CheckpointLog log(dir.path());
  EXPECT_EQ(log.replay_stats().completed_units, 1u);
  EXPECT_EQ(log.replay_stats().units, 2u);
}

TEST(CheckpointLog, TornJournalTailReplaysToLastCompleteRecord) {
  ScratchDir dir("torn");
  std::vector<WorkUnit> units = make_units(3);
  for (std::size_t i = 0; i < units.size(); ++i) {
    units[i].job_id = 2;
    units[i].unit_id = i;
  }
  {
    checkpoint::CheckpointLog log(dir.path());
    log.record_open(2, "rid-torn", 10'000, units);
    log.record_complete(fake_result(units[1]));
  }
  {
    // Crash mid-append: a frame fragment with no newline at the tail.
    std::ofstream out(dir.path() + "/journal.djl",
                      std::ios::binary | std::ios::app);
    const std::string fragment = journal::frame_record("incumbent job=2 half");
    out << fragment.substr(0, fragment.size() / 2);
  }
  checkpoint::CheckpointLog log(dir.path());
  EXPECT_TRUE(log.replay_stats().torn_tail);
  EXPECT_GT(log.replay_stats().dropped_bytes, 0u);
  EXPECT_EQ(log.replay_stats().completed_units, 1u);
  const auto recovered = log.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].completed(), 1u);
  ASSERT_TRUE(recovered[0].results[1].has_value());
}

TEST(CheckpointLog, RecordsWithUndecodableNumbersAreSkipped) {
  // `job=` past 2^64 must not wrap to job 1 and collect job 1's unit
  // records, a non-digit value must not read as 0, and a 32-bit lease past
  // 2^32 must not truncate to 1 ms: a field that does not decode makes its
  // record unparsable, and replay skips it.
  ScratchDir dir("bad_numbers");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755), 0);
  WorkUnit unit = make_units(1)[0];
  unit.job_id = 1;
  unit.unit_id = 0;
  {
    std::ofstream out(dir.path() + "/journal.djl", std::ios::binary);
    for (const std::string& record :
         {std::string("open job=18446744073709551617 rid= lease_ms=1 units=1"),
          "unit " + format_work_grant(unit, 1.0),
          std::string("open job=5 rid= lease_ms=1e3 units=1"),
          std::string("open job=6 rid= lease_ms=100 units=x"),
          std::string("open job=7 rid= lease_ms=4294967297 units=1")})
      out << journal::frame_record(record);
  }
  checkpoint::CheckpointLog log(dir.path());
  EXPECT_EQ(log.replay_stats().records, 5u);
  EXPECT_EQ(log.replay_stats().jobs, 0u);
  EXPECT_TRUE(log.take_recovered().empty());
}

TEST(CheckpointLog, FailedJobsAreNotRecovered) {
  ScratchDir dir("failed");
  std::vector<WorkUnit> units = make_units(1);
  units[0].job_id = 3;
  units[0].unit_id = 0;
  {
    checkpoint::CheckpointLog log(dir.path());
    log.record_open(3, "rid-bad", 10'000, units);
    log.record_finish(3, /*failed=*/true);
  }
  checkpoint::CheckpointLog log(dir.path());
  EXPECT_TRUE(log.take_recovered().empty());
}

TEST(Coordinator, PartialCrashRecoveryMergesBitIdentically) {
  ScratchDir dir("adopt");
  const std::uint32_t lease_ms = 30'000;
  const std::string rid = "rid-adopt";

  // Reference: the uninterrupted run.
  std::vector<UnitResult> reference;
  {
    DistCoordinator coordinator;
    auto job = coordinator.open_job(make_units(8), lease_ms, rid);
    EXPECT_EQ(serve_all(coordinator, "ref"), 8u);
    JobResult result = job.future.get();
    ASSERT_TRUE(result.error.empty()) << result.error;
    reference = std::move(result.units);
  }

  // Crashed run: journal armed, 3 of 8 units complete, then the process
  // "dies" (coordinator and log destroyed without finishing the job).
  {
    checkpoint::CheckpointLog log(dir.path());
    DistCoordinator coordinator;
    coordinator.set_checkpoint(&log);
    auto job = coordinator.open_job(make_units(8), lease_ms, rid);
    EXPECT_EQ(serve_all(coordinator, "w1", /*at_most=*/3), 3u);
  }

  // Restarted run: replay, adopt, execute only the missing 5 units.
  checkpoint::CheckpointLog log(dir.path());
  EXPECT_EQ(log.replay_stats().completed_units, 3u);
  DistCoordinator coordinator;
  coordinator.set_checkpoint(&log);
  EXPECT_TRUE(coordinator.has_recovered(rid));
  EXPECT_FALSE(coordinator.has_recovered("someone-else"));

  auto job = coordinator.open_job(make_units(8), lease_ms, rid);
  EXPECT_EQ(serve_all(coordinator, "w2"), 5u);  // only the gaps re-run
  JobResult result = job.future.get();
  ASSERT_TRUE(result.error.empty()) << result.error;
  expect_unit_results_equal(result.units, reference);
  EXPECT_EQ(coordinator.counters().units_recovered, 3u);
  EXPECT_FALSE(coordinator.has_recovered(rid));  // stash consumed
}

TEST(Coordinator, FullyRecoveredJobResolvesWithoutAnyLease) {
  ScratchDir dir("fullrecover");
  const std::string rid = "rid-full";
  std::vector<UnitResult> reference;
  {
    checkpoint::CheckpointLog log(dir.path());
    DistCoordinator coordinator;
    coordinator.set_checkpoint(&log);
    auto job = coordinator.open_job(make_units(4), 10'000, rid);
    EXPECT_EQ(serve_all(coordinator, "w1"), 4u);
    JobResult result = job.future.get();
    ASSERT_TRUE(result.error.empty());
    reference = std::move(result.units);
  }
  // Finished jobs stay adoptable (keep_finished window) so a client whose
  // daemon restarted *after* completion still gets its answer.
  checkpoint::CheckpointLog log(dir.path());
  DistCoordinator coordinator;
  coordinator.set_checkpoint(&log);
  auto job = coordinator.open_job(make_units(4), 10'000, rid);
  EXPECT_FALSE(coordinator.lease("w2").has_value());  // nothing to re-run
  JobResult result = job.future.get();
  ASSERT_TRUE(result.error.empty());
  expect_unit_results_equal(result.units, reference);
  EXPECT_EQ(coordinator.counters().units_recovered, 4u);
}

TEST(Coordinator, AdoptionRequiresMatchingUnits) {
  ScratchDir dir("mismatch");
  const std::string rid = "rid-mismatch";
  {
    checkpoint::CheckpointLog log(dir.path());
    DistCoordinator coordinator;
    coordinator.set_checkpoint(&log);
    auto job = coordinator.open_job(make_units(4), 10'000, rid);
    EXPECT_EQ(serve_all(coordinator, "w1", 2), 2u);
  }
  checkpoint::CheckpointLog log(dir.path());
  DistCoordinator coordinator;
  coordinator.set_checkpoint(&log);
  // Same rid, different unit shape (e.g. a journal written by a build that
  // split the search differently): nothing may be adopted.
  std::vector<WorkUnit> different = make_units(4);
  for (auto& unit : different) unit.frontier_depth = 9;
  auto job = coordinator.open_job(std::move(different), 10'000, rid);
  EXPECT_EQ(coordinator.counters().units_recovered, 0u);
  EXPECT_EQ(serve_all(coordinator, "w2"), 4u);  // everything re-ran
  EXPECT_TRUE(job.future.get().error.empty());
}

TEST(Coordinator, LegacyAnnealingJobIsNeverAdopted) {
  // An older build fanned min-area annealing restarts out as units and
  // journaled them with their results (`assignment=`, `evals=`).  Replay
  // skips those records without failing, drops the job, and a fresh job
  // under the same rid runs every unit.
  ScratchDir dir("legacy_anneal");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755), 0);
  const std::string rid = "rid-anneal";
  {
    std::ofstream out(dir.path() + "/journal.djl", std::ios::binary);
    out << journal::frame_record("open job=3 rid=" + rid +
                                 " lease_ms=10000 units=2");
    for (const char* unit : {"0", "1"})
      out << journal::frame_record(
          std::string("unit {\"ok\":true,\"work\":true,\"job\":3,\"unit\":") +
          unit +
          ",\"kind\":\"anneal\",\"by_power\":true,\"task\":0,"
          "\"frontier\":0,\"bound\":\"inf\",\"budget\":0,\"aseed\":1,"
          "\"restart\":" + unit +
          ",\"iters\":2000,\"shared\":false,\"pi_prob\":0.5,"
          "\"load_aware\":true,\"fingerprint\":" +
          std::to_string(0xfeedfacecafeULL) + ",\"incumbent\":\"inf\"}");
    out << journal::frame_record(
        "complete_work worker=journal job=3 unit=0 ok=1 metric=412 "
        "code=18446744073709551615 assignment=+-+- leaves=0 expanded=0 "
        "pruned=0 evals=2081 tripped=0");
  }
  checkpoint::CheckpointLog log(dir.path());
  EXPECT_EQ(log.replay_stats().records, 4u);
  EXPECT_EQ(log.replay_stats().jobs, 0u);
  DistCoordinator coordinator;
  coordinator.set_checkpoint(&log);
  EXPECT_FALSE(coordinator.has_recovered(rid));

  auto job = coordinator.open_job(make_units(2), 10'000, rid);
  EXPECT_EQ(coordinator.counters().units_recovered, 0u);
  EXPECT_EQ(serve_all(coordinator, "w"), 2u);
  EXPECT_TRUE(job.future.get().error.empty());
}

// -- ServerCore level ---------------------------------------------------------

BenchSpec recovery_spec(std::uint64_t seed) {
  BenchSpec spec;
  spec.name = "rec" + std::to_string(seed);
  spec.num_pis = 9;
  spec.num_pos = 6;
  spec.gate_target = 80;
  spec.seed = seed;
  return spec;
}

ServerRequest recovery_request(const Network& net, const std::string& rid,
                               unsigned retry) {
  ServerRequest request;
  request.network = std::make_shared<const Network>(net);
  request.options.mode = PhaseMode::kExhaustivePower;
  request.options.sim.steps = 256;
  request.options.sim.warmup = 8;
  request.options.dist.enabled = true;
  request.options.dist.frontier_depth = 3;
  request.request_id = rid;
  request.retry_attempt = retry;
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

TEST(ServerRecovery, RetrySubmitReattachesInsteadOfReexecuting) {
  const BenchSpec spec = recovery_spec(11);
  const Network net = generate_benchmark(spec);
  ServerConfig config;
  config.num_workers = 2;
  ServerCore core(config);

  const std::string rid = "feedbeef00000001";
  const ServerResponse first =
      core.submit(recovery_request(net, rid, /*retry=*/0)).get();
  ASSERT_EQ(first.status, ServerStatus::kOk);

  // The retry re-attaches to the finished job: same bytes, no re-execution.
  const ServerResponse again =
      core.submit(recovery_request(net, rid, /*retry=*/1)).get();
  ASSERT_EQ(again.status, ServerStatus::kOk);
  expect_reports_identical(again.report, first.report);

  const ServerCore::Stats stats = core.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retried_submits, 1u);
  EXPECT_EQ(stats.reattached_submits, 1u);

  // job_status surfaces the same registry.
  EXPECT_EQ(core.job_status(rid).state,
            ServerCore::JobStatusResult::State::kDone);
  EXPECT_EQ(core.job_status("0000000000000000").state,
            ServerCore::JobStatusResult::State::kUnknown);
  core.shutdown();
}

TEST(ServerRecovery, RestartAdoptsJournaledJobBitIdentically) {
  ScratchDir dir("server");
  const BenchSpec spec = recovery_spec(12);
  const Network net = generate_benchmark(spec);
  const std::string rid = "feedbeef00000002";

  ServerConfig config;
  config.num_workers = 2;
  config.journal_dir = dir.path();

  // First incarnation journals the distributed job while serving it.
  FlowReport reference;
  {
    ServerCore core(config);
    const ServerResponse response =
        core.submit(recovery_request(net, rid, /*retry=*/0)).get();
    ASSERT_EQ(response.status, ServerStatus::kOk);
    reference = response.report;
    core.shutdown();
  }

  // Second incarnation replays the journal: the rid shows as recovered
  // before any submit, and the client's retry adopts every journaled unit
  // instead of re-searching — the report must be bit-identical.
  ServerCore core(config);
  ASSERT_NE(core.recovery(), nullptr);
  EXPECT_GT(core.recovery()->completed_units, 0u);
  EXPECT_EQ(core.job_status(rid).state,
            ServerCore::JobStatusResult::State::kRecovered);

  const ServerResponse resumed =
      core.submit(recovery_request(net, rid, /*retry=*/1)).get();
  ASSERT_EQ(resumed.status, ServerStatus::kOk);
  expect_reports_identical(resumed.report, reference);

  const ServerCore::Stats stats = core.stats();
  EXPECT_GT(stats.units_recovered, 0u);
  EXPECT_EQ(core.job_status(rid).state,
            ServerCore::JobStatusResult::State::kDone);
  core.shutdown();
}

TEST(ServerRecovery, ColdCacheWarmJournalBuildsSessionsOnce) {
  // The satellite-3 scenario: after a restart the journal is warm but the
  // SessionCache is cold, and several clients re-attach the same rid
  // concurrently while unrelated traffic applies eviction pressure on a
  // capacity-1 cache.  The rid's session must be built exactly once (leases
  // pin entries against eviction); every re-attach shares one execution.
  ScratchDir dir("coldcache");
  const BenchSpec spec = recovery_spec(13);
  const Network net = generate_benchmark(spec);
  const std::string rid = "feedbeef00000003";

  ServerConfig config;
  config.num_workers = 4;
  config.cache_capacity = 1;
  config.journal_dir = dir.path();
  {
    ServerCore core(config);
    ASSERT_EQ(core
                  .submit(recovery_request(net, rid, /*retry=*/0))
                  .get()
                  .status,
              ServerStatus::kOk);
    core.shutdown();
  }

  ServerCore core(config);
  EXPECT_EQ(core.cache().size(), 0u);  // cold cache, warm journal

  // One first-attempt submit (the re-attach anchor) racing three retries of
  // the same rid and eviction-pressure traffic on another circuit.
  const BenchSpec other_spec = recovery_spec(14);
  const Network other = generate_benchmark(other_spec);
  std::vector<std::future<ServerResponse>> attached;
  auto anchor = core.submit(recovery_request(net, rid, /*retry=*/1));
  for (unsigned retry = 2; retry <= 4; ++retry)
    attached.push_back(
        core.submit(recovery_request(net, rid, retry)));
  std::vector<std::future<ServerResponse>> churn;
  for (int i = 0; i < 3; ++i) {
    ServerRequest request;
    request.network = std::make_shared<const Network>(other);
    request.options.mode = PhaseMode::kMinArea;
    request.options.sim.steps = 128;
    churn.push_back(core.submit(std::move(request)));
  }

  const ServerResponse first = anchor.get();
  ASSERT_EQ(first.status, ServerStatus::kOk);
  for (auto& future : attached) {
    const ServerResponse response = future.get();
    ASSERT_EQ(response.status, ServerStatus::kOk);
    expect_reports_identical(response.report, first.report);
  }
  for (auto& future : churn) EXPECT_EQ(future.get().status, ServerStatus::kOk);

  const ServerCore::Stats stats = core.stats();
  // The rid executed exactly once this incarnation; the journal-adopted
  // units meant no re-search, and the parked retries shared that execution.
  EXPECT_EQ(stats.reattached_submits, 3u);
  EXPECT_GT(stats.units_recovered, 0u);
  // Exactly one session build for the rid's circuit: cache misses cover the
  // two distinct circuits only, not the re-attached duplicates.
  EXPECT_EQ(core.cache().misses(), 2u);
  core.shutdown();
}

}  // namespace
}  // namespace dominosyn::dist
