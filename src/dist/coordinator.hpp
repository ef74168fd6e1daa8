/// \file coordinator.hpp
/// The coordinator side of the distributed search fabric: tracks open jobs,
/// leases work units to workers with deadlines, re-issues units whose worker
/// disappeared (disconnect or deadline expiry), lets idle workers steal
/// speculative duplicate leases on stragglers, and relays incumbent
/// improvements between workers of a job.
///
/// Results are keep-first: the first completion of a unit wins and later
/// (stolen / re-issued) duplicates are ignored, so every unit resolves to
/// exactly one result and the driver's unit-order merge is deterministic.
/// The coordinator never inspects circuits or metrics beyond min(); all
/// search semantics live in dist/search.cpp and the phase engines.
///
/// A job also holds its circuit payload (format_circuit_payload, written
/// once when dist/search.cpp opens the job) for exactly as long as the job
/// lives; workers fetch it once per job instead of every grant carrying the
/// circuit.
///
/// Thread-safe; embedded in ServerCore and served by the transport verbs
/// lease_work / steal / fetch_circuit / complete_work / push_incumbent
/// (docs/protocol.md).

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/checkpoint.hpp"
#include "dist/workunit.hpp"

namespace dominosyn::dist {

/// What a job's future resolves to.
struct JobResult {
  bool cancelled = false;  ///< coordinator shut down before completion
  std::string error;       ///< non-empty: a unit failed (fail-fast)
  /// One result per unit, in unit order, when !cancelled && error.empty().
  std::vector<UnitResult> units;
};

class DistCoordinator {
 public:
  struct Counters {
    std::uint64_t units_issued = 0;    ///< lease grants (incl. re-issues)
    std::uint64_t units_stolen = 0;    ///< speculative duplicate leases
    std::uint64_t units_reissued = 0;  ///< re-queues after expiry/disconnect
    std::uint64_t incumbent_broadcasts = 0;  ///< accepted push_incumbent
    std::uint64_t workers_quarantined = 0;   ///< quarantine trips
    std::uint64_t quarantine_probes = 0;     ///< re-admit probe grants
    std::uint64_t units_recovered = 0;  ///< completions adopted from the log
  };

  /// Worker-health circuit breaker (docs/robustness.md): a worker whose
  /// failures (disconnect with leases held, lease expiry, failed unit) reach
  /// `threshold` consecutively is quarantined — lease()/steal() refuse it —
  /// so a crash-looping worker cannot keep adopting units and poisoning
  /// lease deadlines.  Every `probe_every`-th refused request is granted as
  /// a re-admit probe; one successful completion rehabilitates the worker.
  /// Results stay deterministic regardless (keep-first + ordered merge).
  struct QuarantineConfig {
    unsigned threshold = 3;   ///< consecutive failures to trip; 0 disables
    unsigned probe_every = 8; ///< grant every Nth refused request as a probe
  };

  struct Grant {
    WorkUnit unit;
    double incumbent = std::numeric_limits<double>::infinity();
  };

  struct CompleteAck {
    bool accepted = false;  ///< first completion of a live unit
    double incumbent = std::numeric_limits<double>::infinity();
  };

  struct OpenedJob {
    std::uint64_t job_id = 0;
    std::future<JobResult> future;
  };

  /// Registers a job; assigns the job id and unit ids (= unit order).  The
  /// future resolves when every unit completed, a unit failed, or
  /// cancel_all() ran.  After cancel_all() new jobs resolve cancelled
  /// immediately.
  ///
  /// `rid` is the originating request's fingerprint.  With a checkpoint log
  /// installed, a non-empty rid (a) journals the job shape + completions,
  /// and (b) *adopts* a matching recovered job: durable unit results are
  /// pre-marked done (counted as `units_recovered`) and only the missing
  /// units are queued — the resume path after a daemon crash.  A journal
  /// written by another build may hold different units under the identical
  /// rid, so adoption additionally requires the unit vectors to match.
  ///
  /// `circuit` is the payload fetch_circuit serves for the job; it is never
  /// journaled (an adopting job brings its own).
  [[nodiscard]] OpenedJob open_job(std::vector<WorkUnit> units,
                                   std::uint32_t lease_timeout_ms,
                                   const std::string& rid = {},
                                   std::string circuit = {});

  /// The circuit payload of a live job; nullptr when the job is unknown,
  /// finished, or was opened without one.
  [[nodiscard]] std::shared_ptr<const std::string> fetch_circuit(
      std::uint64_t job_id) const;

  /// Leases the next queued unit (of `job_filter`, or of the lowest-id job
  /// with queued work when 0).  nullopt when nothing is queued — idle workers
  /// then try steal().
  [[nodiscard]] std::optional<Grant> lease(const std::string& worker,
                                           std::uint64_t job_filter = 0);

  /// Speculative duplicate lease on the earliest-deadline leased unit held by
  /// a *different* worker, only when no matching job has queued units.  The
  /// keep-first rule in complete() makes the duplicate harmless.
  [[nodiscard]] std::optional<Grant> steal(const std::string& worker,
                                           std::uint64_t job_filter = 0);

  /// Records a unit result.  accepted=false for unknown/finished jobs and
  /// for units already completed by another worker.  A !ok result fails the
  /// whole job (its future resolves with the unit's error).
  CompleteAck complete(const std::string& worker, const UnitResult& result);

  /// Merges a worker's incumbent improvement into the job (shared-bounds
  /// mode); returns the job incumbent after the merge.
  double push_incumbent(const std::string& worker, std::uint64_t job_id,
                        double metric);

  /// The job's current incumbent (+inf for unknown jobs).
  [[nodiscard]] double current_incumbent(std::uint64_t job_id);

  /// Invalidates every lease held by `worker` and re-queues the affected
  /// units.  Called by the transport when a connection that leased work goes
  /// away.
  void worker_disconnected(const std::string& worker);

  /// Expires overdue leases and re-queues their units.  Cheap; the transport
  /// runs it lazily on every dist verb and drivers run it while waiting.
  void sweep();

  /// Resolves every open job as cancelled and refuses new ones.  Part of
  /// ServerCore::shutdown so outstanding submit futures never hang.
  void cancel_all();

  /// Installs the durable checkpoint log (borrowed; must outlive the
  /// coordinator): takes its recovered jobs into the adoption stash and
  /// bumps next_job_id_ past every journaled id so fresh ids never collide.
  /// nullptr detaches (tests).
  void set_checkpoint(checkpoint::CheckpointLog* log);

  /// True while a recovered job with this rid awaits re-attach adoption.
  [[nodiscard]] bool has_recovered(const std::string& rid) const;

  /// Replaces the quarantine policy (existing health records are kept).
  void set_quarantine(QuarantineConfig config);

  /// True while `worker` is quarantined (tests / introspection).
  [[nodiscard]] bool worker_quarantined(const std::string& worker) const;

  [[nodiscard]] bool closed() const;
  [[nodiscard]] Counters counters() const;

  /// Monotonic count of lease grants and completions — drivers watch it to
  /// detect a stalled (worker-less) fabric and take over inline.
  [[nodiscard]] std::uint64_t activity() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Lease {
    std::size_t unit_index = 0;
    std::string worker;
    Clock::time_point deadline;
    bool valid = false;
  };

  struct Job {
    std::string rid;  ///< originating request fingerprint ("" = unjournaled)
    std::uint32_t lease_timeout_ms = 0;
    std::vector<WorkUnit> units;
    /// Shared so a fetch copies a pointer, not the payload, under mutex_.
    std::shared_ptr<const std::string> circuit;
    std::deque<std::size_t> queue;
    std::vector<char> in_queue;
    std::vector<char> done;
    std::vector<UnitResult> results;
    std::size_t completed = 0;
    double incumbent = std::numeric_limits<double>::infinity();
    std::vector<Lease> leases;
    std::promise<JobResult> promise;
  };

  struct WorkerHealth {
    unsigned consecutive_failures = 0;
    bool quarantined = false;
    std::uint64_t refusals = 0;  ///< refused requests since quarantine trip
  };

  void sweep_locked(Clock::time_point now);
  void requeue_if_orphaned_locked(Job& job, std::size_t unit_index);
  /// Adopts durable results from a recovered job matching (rid, units) into
  /// `job`; returns true when one was consumed.
  bool adopt_recovered_locked(std::uint64_t job_id, Job& job);
  /// Journal hooks — every checkpoint write is wrapped here so a failing
  /// journal (disk full, journal.write_fail) costs durability, never
  /// answers.
  void journal_open_locked(std::uint64_t job_id, const Job& job);
  void journal_complete_locked(const UnitResult& result);
  void journal_incumbent_locked(std::uint64_t job_id, double metric);
  void journal_finish_locked(std::uint64_t job_id, bool failed);
  [[nodiscard]] Grant grant_locked(Job& job, std::uint64_t job_id,
                                   std::size_t unit_index);
  /// True when the quarantine gate should turn this worker's lease/steal
  /// request away (false every probe_every-th time: a re-admit probe).
  [[nodiscard]] bool quarantine_refuses_locked(const std::string& worker);
  void note_worker_failure_locked(const std::string& worker);
  void note_worker_success_locked(const std::string& worker);

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_job_id_ = 1;
  bool closed_ = false;
  Counters counters_;
  std::uint64_t activity_ = 0;
  QuarantineConfig quarantine_;
  std::map<std::string, WorkerHealth> health_;
  /// Durable log (borrowed from ServerCore; nullptr = durability off) and
  /// the replayed jobs awaiting re-attach adoption.  Lock order is always
  /// coordinator mutex_ -> checkpoint's internal mutex, never reversed.
  checkpoint::CheckpointLog* checkpoint_ = nullptr;
  std::vector<checkpoint::RecoveredJob> recovered_;
};

}  // namespace dominosyn::dist
