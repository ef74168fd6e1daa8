/// \file checkpoint.hpp
/// Durable job state for the distributed search fabric (docs/robustness.md):
/// a write-ahead checkpoint log over util/journal.hpp that records job
/// admission, every work-unit completion, incumbent updates, and job
/// finalization — enough for a restarted dominod to reconstruct the
/// coordinator's per-job unit queues minus already-completed units and finish
/// with a report bit-identical to an uninterrupted run (unit results are pure
/// functions of their unit descriptions and the merge is unit-ordered, so
/// *which process* produced a completed unit never matters).
///
/// Record payloads are written and read by util/codec.hpp and reuse the
/// fabric's wire formats verbatim — one line each, dispatched on the first
/// token; a record whose fields do not decode is skipped at replay:
///
///     open job=<id> rid=<pct-enc> lease_ms=<n> units=<n>
///     unit <work-grant JSON>                    (format_work_grant, one/unit)
///     complete_work worker=journal job=... ...  (format_complete_command)
///     incumbent job=<id> metric=<m>
///     finish job=<id> failed=0|1
///
/// `unit` lines written before grants shrank to the circuit key also carry
/// the circuit spec (`corpus`, `blif`, `bench_*`), and older ones the unit
/// kind and annealing fields (`kind`, `aseed`, `restart`, `iters`); the
/// grant decoder ignores them, so a `bnb` unit replays and compaction
/// rewrites it slim.  A job with a unit line that does not replay (an
/// annealing restart, whose `kind` is not `bnb`, or a torn open) is dropped
/// at replay.  Older `complete_work` records carry `evals=` (annealing
/// results also `assignment=`), keys this build does not decode, so they
/// are skipped and their units rerun.  The circuit payload workers fetch is
/// never journaled: an adopting job brings its own.
///
/// Files in the journal directory:
///     journal.djl    the append-only CRC-framed journal
///     snapshot.djl   periodic compaction of the live state
///
/// Compaction: record_finish() past `compact_after_records` journal records
/// rewrites snapshot.djl atomically from the in-memory mirror (dropping
/// failed jobs and all but the newest `keep_finished` finished jobs) and
/// truncates the journal, so replay cost is bounded by live state, not by
/// history.  Replay tolerates records for unknown jobs (compaction dropped
/// the open), duplicate completions (keep-first, like the coordinator), and
/// torn tails (the journal layer stops at the last complete record).
///
/// Thread-safe; the coordinator calls the record_* hooks while holding its
/// own lock — the lock order is coordinator -> checkpoint, never reversed.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/workunit.hpp"
#include "util/journal.hpp"

namespace dominosyn::dist::checkpoint {

/// One job reconstructed from the log, ready for coordinator adoption
/// (DistCoordinator::set_checkpoint).  `results[i]` is engaged exactly when
/// unit i completed before the crash; adopted jobs re-run only the gaps.
struct RecoveredJob {
  std::uint64_t journal_job_id = 0;  ///< id in the *previous* incarnation
  std::string rid;                   ///< client request fingerprint
  std::uint32_t lease_timeout_ms = 0;
  std::vector<WorkUnit> units;
  std::vector<std::optional<UnitResult>> results;
  double incumbent = std::numeric_limits<double>::infinity();
  bool finished = false;
  bool failed = false;

  [[nodiscard]] std::size_t completed() const {
    std::size_t n = 0;
    for (const auto& r : results) n += r.has_value() ? 1 : 0;
    return n;
  }
};

/// What startup replay found — echoed by dominod and exported by tests.
struct ReplayStats {
  std::uint64_t records = 0;          ///< valid records replayed (both files)
  std::uint64_t jobs = 0;             ///< jobs reconstructed
  std::uint64_t live_jobs = 0;        ///< of those, unfinished
  std::uint64_t units = 0;            ///< units across reconstructed jobs
  std::uint64_t completed_units = 0;  ///< units with a durable result
  bool torn_tail = false;             ///< either file ended mid-record
  std::uint64_t dropped_bytes = 0;    ///< bytes past the last valid record
};

class CheckpointLog {
 public:
  struct Options {
    std::size_t fsync_every = 8;  ///< journal fsync batching
    /// Journal records between compactions (checked at job finish).
    std::uint64_t compact_after_records = 4096;
    /// Finished jobs retained (newest first) for client re-attach.
    std::size_t keep_finished = 16;
  };

  /// Creates `dir` if needed, replays snapshot + journal into the in-memory
  /// mirror, and reopens the journal for appending.  Throws JournalError on
  /// unusable directories; torn/corrupt content is never an error (the valid
  /// prefix wins — see replay_stats().torn_tail).
  CheckpointLog(std::string dir, Options options);
  explicit CheckpointLog(std::string dir)
      : CheckpointLog(std::move(dir), Options{}) {}

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  // -- write-ahead hooks (coordinator-side; throw journal::JournalError) ----

  /// Job admitted: one `open` record + one `unit` record per unit.  Written
  /// *before* the job's first grant, so a crash cannot lose the job shape.
  void record_open(std::uint64_t job_id, const std::string& rid,
                   std::uint32_t lease_timeout_ms,
                   const std::vector<WorkUnit>& units);
  /// First accepted completion of a unit (keep-first, like the coordinator).
  void record_complete(const UnitResult& result);
  /// Job incumbent improved (push_incumbent / completion merge).
  void record_incumbent(std::uint64_t job_id, double metric);
  /// Job resolved.  May compact (see Options::compact_after_records).
  void record_finish(std::uint64_t job_id, bool failed);
  /// A recovered job was re-journaled under a fresh id (coordinator
  /// adoption): drop the old incarnation's entry — its history is redundant.
  void record_adopted(std::uint64_t journal_job_id);
  /// fsync the journal now (shutdown path).
  void sync();

  // -- recovery side --------------------------------------------------------

  /// The reconstructed jobs (finished-ok jobs included — re-attach resolves
  /// them instantly; failed jobs excluded), sorted by journal_job_id.
  /// Destructive: the second call returns empty.
  [[nodiscard]] std::vector<RecoveredJob> take_recovered();

  [[nodiscard]] const ReplayStats& replay_stats() const { return replay_; }

  /// Highest job id seen in the log (0 when empty) — the coordinator bumps
  /// next_job_id_ past it so fresh ids never collide with journaled ones.
  [[nodiscard]] std::uint64_t max_job_id() const;

  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string snapshot_path() const;

  /// Journal records appended since the last compaction (tests).
  [[nodiscard]] std::uint64_t journal_records() const;

 private:
  /// The in-memory mirror of one job — authoritative for compaction.
  struct JobState {
    std::string rid;
    std::uint32_t lease_timeout_ms = 0;
    std::size_t expected_units = 0;
    std::vector<WorkUnit> units;
    std::vector<std::optional<UnitResult>> results;
    double incumbent = std::numeric_limits<double>::infinity();
    bool finished = false;
    bool failed = false;
  };

  void replay_record(const std::string& payload);
  void append_locked(const std::string& payload);
  void compact_locked();
  static void serialize_job(std::uint64_t job_id, const JobState& job,
                            std::string& out);

  const std::string dir_;
  const Options options_;
  ReplayStats replay_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, JobState> state_;
  journal::Writer writer_;
  std::uint64_t journal_records_ = 0;
  bool recovered_taken_ = false;
};

}  // namespace dominosyn::dist::checkpoint
