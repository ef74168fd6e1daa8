/// \file coordinator.cpp

#include "dist/coordinator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace dominosyn::dist {

namespace {

/// Adoption safety: the identical rid need not describe the same units (a
/// journal written by a build that split the search differently), so a
/// recovered job is only adopted when its units are field-for-field the same
/// search.  bound_snapshot compares exactly — both sides round-tripped
/// through the shortest-round-trip metric codec, so equality is
/// bit-equality.
bool units_compatible(const std::vector<WorkUnit>& recovered,
                      const std::vector<WorkUnit>& fresh) {
  if (recovered.size() != fresh.size()) return false;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const WorkUnit& a = recovered[i];
    const WorkUnit& b = fresh[i];
    if (a.by_power != b.by_power || a.task != b.task ||
        a.frontier_depth != b.frontier_depth ||
        !(a.bound_snapshot == b.bound_snapshot ||
          (a.bound_snapshot != a.bound_snapshot &&
           b.bound_snapshot != b.bound_snapshot)) ||
        a.node_budget != b.node_budget || a.shared_bounds != b.shared_bounds ||
        a.circuit.fingerprint != b.circuit.fingerprint)
      return false;
  }
  return true;
}

}  // namespace

DistCoordinator::OpenedJob DistCoordinator::open_job(
    std::vector<WorkUnit> units, std::uint32_t lease_timeout_ms,
    const std::string& rid, std::string circuit) {
  auto payload = circuit.empty()
                     ? nullptr
                     : std::make_shared<const std::string>(std::move(circuit));
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) {
    std::promise<JobResult> cancelled;
    JobResult result;
    result.cancelled = true;
    cancelled.set_value(std::move(result));
    return OpenedJob{0, cancelled.get_future()};
  }
  const std::uint64_t job_id = next_job_id_++;
  Job& job = jobs_[job_id];
  job.rid = rid;
  job.lease_timeout_ms = lease_timeout_ms;
  job.units = std::move(units);
  job.circuit = std::move(payload);
  const std::size_t count = job.units.size();
  job.in_queue.assign(count, 0);
  job.done.assign(count, 0);
  job.results.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    job.units[i].job_id = job_id;
    job.units[i].unit_id = i;
  }
  // Resume path: pre-mark units whose results survived in the checkpoint
  // log, then queue only the gaps.  Journaling happens *after* adoption so
  // the new incarnation's log already contains the adopted completions.
  adopt_recovered_locked(job_id, job);
  for (std::size_t i = 0; i < count; ++i) {
    if (job.done[i]) continue;
    job.queue.push_back(i);
    job.in_queue[i] = 1;
  }
  journal_open_locked(job_id, job);
  std::future<JobResult> future = job.promise.get_future();
  if (job.completed == count) {
    // Empty job, or every unit recovered from the journal (the re-attach of
    // a crash-interrupted-but-finished search): resolve immediately.
    journal_finish_locked(job_id, /*failed=*/false);
    JobResult done;
    done.units = std::move(job.results);
    job.promise.set_value(std::move(done));
    jobs_.erase(job_id);
  }
  return OpenedJob{job_id, std::move(future)};
}

bool DistCoordinator::adopt_recovered_locked(std::uint64_t job_id, Job& job) {
  if (job.rid.empty()) return false;
  for (auto it = recovered_.begin(); it != recovered_.end(); ++it) {
    if (it->rid != job.rid) continue;
    if (!units_compatible(it->units, job.units)) continue;
    for (std::size_t i = 0; i < job.units.size(); ++i) {
      if (!it->results[i].has_value()) continue;
      UnitResult result = *it->results[i];
      result.job_id = job_id;
      result.unit_id = i;
      // Replayed spans belong to the previous incarnation's timeline;
      // don't re-ingest them into this request's trace.
      result.spans_wire.clear();
      job.done[i] = 1;
      job.results[i] = std::move(result);
      ++job.completed;
      job.incumbent = std::min(job.incumbent, job.results[i].metric);
      ++counters_.units_recovered;
    }
    job.incumbent = std::min(job.incumbent, it->incumbent);
    if (checkpoint_ != nullptr) {
      try {
        checkpoint_->record_adopted(it->journal_job_id);
      } catch (const std::exception&) {
        // Durability hiccup only; the new open/completes re-journal below.
      }
    }
    recovered_.erase(it);
    return true;
  }
  return false;
}

void DistCoordinator::journal_open_locked(std::uint64_t job_id,
                                          const Job& job) {
  if (checkpoint_ == nullptr || job.rid.empty() || job.units.empty()) return;
  try {
    checkpoint_->record_open(job_id, job.rid, job.lease_timeout_ms, job.units);
    for (std::size_t i = 0; i < job.units.size(); ++i)
      if (job.done[i]) checkpoint_->record_complete(job.results[i]);
  } catch (const std::exception&) {
    // Journal write failed (disk, journal.write_fail): the job still runs,
    // it just won't survive a crash — faults cost durability, never answers.
  }
}

void DistCoordinator::journal_complete_locked(const UnitResult& result) {
  if (checkpoint_ == nullptr) return;
  try {
    checkpoint_->record_complete(result);
  } catch (const std::exception&) {
  }
}

void DistCoordinator::journal_incumbent_locked(std::uint64_t job_id,
                                               double metric) {
  if (checkpoint_ == nullptr) return;
  try {
    checkpoint_->record_incumbent(job_id, metric);
  } catch (const std::exception&) {
  }
}

void DistCoordinator::journal_finish_locked(std::uint64_t job_id,
                                            bool failed) {
  if (checkpoint_ == nullptr) return;
  try {
    checkpoint_->record_finish(job_id, failed);
  } catch (const std::exception&) {
  }
}

void DistCoordinator::set_checkpoint(checkpoint::CheckpointLog* log) {
  std::lock_guard<std::mutex> lock(mutex_);
  checkpoint_ = log;
  recovered_.clear();
  if (log == nullptr) return;
  for (auto& job : log->take_recovered()) {
    // Only rid-carrying jobs can ever be re-attached; the rest would sit in
    // the stash forever.
    if (!job.rid.empty()) recovered_.push_back(std::move(job));
  }
  next_job_id_ = std::max(next_job_id_, log->max_job_id() + 1);
}

bool DistCoordinator::has_recovered(const std::string& rid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& job : recovered_)
    if (job.rid == rid) return true;
  return false;
}

std::shared_ptr<const std::string> DistCoordinator::fetch_circuit(
    std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second.circuit;
}

DistCoordinator::Grant DistCoordinator::grant_locked(Job& job,
                                                     std::uint64_t job_id,
                                                     std::size_t unit_index) {
  (void)job_id;
  Grant grant;
  grant.unit = job.units[unit_index];
  grant.incumbent = job.incumbent;
  return grant;
}

std::optional<DistCoordinator::Grant> DistCoordinator::lease(
    const std::string& worker, std::uint64_t job_filter) {
  // Latency-injection site (delay_ms in the spec); deliberately before the
  // lock so a slowed grant never stalls the other workers' verbs.
  (void)fault::point("coordinator.lease.delay");
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point now = Clock::now();
  sweep_locked(now);
  if (quarantine_refuses_locked(worker)) return std::nullopt;
  for (auto& [job_id, job] : jobs_) {
    if (job_filter != 0 && job_id != job_filter) continue;
    if (job.queue.empty()) continue;
    const std::size_t unit_index = job.queue.front();
    job.queue.pop_front();
    job.in_queue[unit_index] = 0;
    Lease lease;
    lease.unit_index = unit_index;
    lease.worker = worker;
    lease.deadline = now + std::chrono::milliseconds(job.lease_timeout_ms);
    lease.valid = true;
    job.leases.push_back(std::move(lease));
    ++counters_.units_issued;
    ++activity_;
    {
      // Instant marker on the request's timeline: when this unit left the
      // coordinator's queue and to whom.
      const obs::TraceContext tc(job.units[unit_index].trace_id);
      const obs::TraceSpan span("dist.lease", obs::SpanCat::kDist);
    }
    return grant_locked(job, job_id, unit_index);
  }
  return std::nullopt;
}

std::optional<DistCoordinator::Grant> DistCoordinator::steal(
    const std::string& worker, std::uint64_t job_filter) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point now = Clock::now();
  sweep_locked(now);
  if (quarantine_refuses_locked(worker)) return std::nullopt;
  // Stealing only kicks in once the regular queue is dry.
  for (const auto& [job_id, job] : jobs_) {
    if (job_filter != 0 && job_id != job_filter) continue;
    if (!job.queue.empty()) return std::nullopt;
  }
  // Earliest-deadline live lease held by someone else = the most likely
  // straggler worth duplicating.
  Job* best_job = nullptr;
  std::uint64_t best_job_id = 0;
  std::size_t best_unit = 0;
  Clock::time_point best_deadline{};
  for (auto& [job_id, job] : jobs_) {
    if (job_filter != 0 && job_id != job_filter) continue;
    for (const Lease& lease : job.leases) {
      if (!lease.valid || job.done[lease.unit_index]) continue;
      if (lease.worker == worker) continue;
      // Don't stack a second speculative lease on a unit this worker
      // already holds.
      const bool already_mine = std::any_of(
          job.leases.begin(), job.leases.end(), [&](const Lease& other) {
            return other.valid && other.unit_index == lease.unit_index &&
                   other.worker == worker;
          });
      if (already_mine) continue;
      if (best_job == nullptr || lease.deadline < best_deadline) {
        best_job = &job;
        best_job_id = job_id;
        best_unit = lease.unit_index;
        best_deadline = lease.deadline;
      }
    }
  }
  if (best_job == nullptr) return std::nullopt;
  Lease lease;
  lease.unit_index = best_unit;
  lease.worker = worker;
  lease.deadline = now + std::chrono::milliseconds(best_job->lease_timeout_ms);
  lease.valid = true;
  best_job->leases.push_back(std::move(lease));
  ++counters_.units_stolen;
  ++activity_;
  return grant_locked(*best_job, best_job_id, best_unit);
}

DistCoordinator::CompleteAck DistCoordinator::complete(
    const std::string& worker, const UnitResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  sweep_locked(Clock::now());
  CompleteAck ack;
  const auto it = jobs_.find(result.job_id);
  if (it == jobs_.end()) return ack;
  Job& job = it->second;
  if (result.unit_id >= job.units.size()) return ack;
  const std::size_t unit_index = result.unit_id;
  // This worker's lease on the unit is finished either way.
  for (Lease& lease : job.leases) {
    if (lease.valid && lease.unit_index == unit_index &&
        lease.worker == worker) {
      lease.valid = false;
    }
  }
  // Health scoring: any returned result proves the worker alive; a !ok
  // result is a worker-side failure (the fail-fast below still applies).
  if (result.ok)
    note_worker_success_locked(worker);
  else
    note_worker_failure_locked(worker);
  if (job.done[unit_index]) {
    ack.incumbent = job.incumbent;
    return ack;  // keep-first: a duplicate (stolen/re-issued) completion
  }
  ++activity_;
  {
    // Completion marker + ingestion of the worker's shipped spans, so a
    // remote unit's execution renders inline on the request's timeline.
    const obs::TraceContext tc(job.units[unit_index].trace_id);
    const obs::TraceSpan span("dist.complete", obs::SpanCat::kDist);
    if (!result.spans_wire.empty())
      obs::record_remote(worker, obs::spans_from_wire(result.spans_wire));
  }
  if (!result.ok) {
    // Fail fast: a unit that cannot run (fingerprint mismatch, engine throw)
    // fails the whole job so the driver can fall back locally.
    journal_finish_locked(result.job_id, /*failed=*/true);
    JobResult failure;
    failure.error = result.error.empty() ? "work unit failed" : result.error;
    job.promise.set_value(std::move(failure));
    jobs_.erase(it);
    ack.accepted = true;
    return ack;
  }
  // The result may arrive after the lease expired and the unit was
  // re-queued; pull it back out so it is never granted again.
  if (job.in_queue[unit_index]) {
    job.queue.erase(
        std::remove(job.queue.begin(), job.queue.end(), unit_index),
        job.queue.end());
    job.in_queue[unit_index] = 0;
  }
  job.done[unit_index] = 1;
  job.results[unit_index] = result;
  ++job.completed;
  job.incumbent = std::min(job.incumbent, result.metric);
  // Write-ahead: the completion is durable before the ack (and before the
  // job's future can resolve below) — a crash after this line replays it.
  journal_complete_locked(result);
  for (Lease& lease : job.leases) {
    if (lease.valid && lease.unit_index == unit_index) lease.valid = false;
  }
  ack.accepted = true;
  ack.incumbent = job.incumbent;
  if (job.completed == job.units.size()) {
    journal_finish_locked(result.job_id, /*failed=*/false);
    JobResult done;
    done.units = std::move(job.results);
    job.promise.set_value(std::move(done));
    jobs_.erase(it);
  }
  return ack;
}

double DistCoordinator::push_incumbent(const std::string& worker,
                                       std::uint64_t job_id, double metric) {
  (void)worker;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return metric;
  Job& job = it->second;
  if (metric < job.incumbent) {
    job.incumbent = metric;
    ++counters_.incumbent_broadcasts;
    journal_incumbent_locked(job_id, metric);
  }
  return job.incumbent;
}

double DistCoordinator::current_incumbent(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::numeric_limits<double>::infinity();
  return it->second.incumbent;
}

void DistCoordinator::requeue_if_orphaned_locked(Job& job,
                                                 std::size_t unit_index) {
  if (job.done[unit_index] || job.in_queue[unit_index]) return;
  const bool still_leased = std::any_of(
      job.leases.begin(), job.leases.end(), [&](const Lease& lease) {
        return lease.valid && lease.unit_index == unit_index;
      });
  if (still_leased) return;
  job.queue.push_back(unit_index);
  job.in_queue[unit_index] = 1;
  ++counters_.units_reissued;
}

void DistCoordinator::worker_disconnected(const std::string& worker) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool dropped_work = false;
  for (auto& [job_id, job] : jobs_) {
    (void)job_id;
    for (Lease& lease : job.leases) {
      if (lease.valid && lease.worker == worker) {
        lease.valid = false;
        dropped_work = true;
        requeue_if_orphaned_locked(job, lease.unit_index);
      }
    }
  }
  // One failure per disconnect event, however many leases it stranded —
  // a single crash should not trip the quarantine threshold by itself.
  if (dropped_work) note_worker_failure_locked(worker);
}

void DistCoordinator::sweep_locked(Clock::time_point now) {
  std::vector<std::string> expired_workers;
  for (auto& [job_id, job] : jobs_) {
    (void)job_id;
    for (Lease& lease : job.leases) {
      if (lease.valid && lease.deadline <= now) {
        lease.valid = false;
        if (std::find(expired_workers.begin(), expired_workers.end(),
                      lease.worker) == expired_workers.end())
          expired_workers.push_back(lease.worker);
        requeue_if_orphaned_locked(job, lease.unit_index);
      }
    }
    // Compact fully-dead lease records so long jobs don't accumulate them.
    std::erase_if(job.leases, [](const Lease& lease) { return !lease.valid; });
  }
  // Letting a lease expire (stall, silent death) is a worker failure; one
  // per worker per sweep.
  for (const std::string& worker : expired_workers)
    note_worker_failure_locked(worker);
}

void DistCoordinator::sweep() {
  std::lock_guard<std::mutex> lock(mutex_);
  sweep_locked(Clock::now());
}

void DistCoordinator::cancel_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  for (auto& [job_id, job] : jobs_) {
    (void)job_id;
    JobResult result;
    result.cancelled = true;
    job.promise.set_value(std::move(result));
  }
  jobs_.clear();
}

bool DistCoordinator::quarantine_refuses_locked(const std::string& worker) {
  if (quarantine_.threshold == 0) return false;
  const auto it = health_.find(worker);
  if (it == health_.end() || !it->second.quarantined) return false;
  WorkerHealth& health = it->second;
  ++health.refusals;
  if (quarantine_.probe_every != 0 &&
      health.refusals % quarantine_.probe_every == 0) {
    ++counters_.quarantine_probes;
    return false;  // re-admit probe: one unit through to re-test the worker
  }
  return true;
}

void DistCoordinator::note_worker_failure_locked(const std::string& worker) {
  if (quarantine_.threshold == 0) return;
  WorkerHealth& health = health_[worker];
  ++health.consecutive_failures;
  if (!health.quarantined &&
      health.consecutive_failures >= quarantine_.threshold) {
    health.quarantined = true;
    health.refusals = 0;
    ++counters_.workers_quarantined;
  }
}

void DistCoordinator::note_worker_success_locked(const std::string& worker) {
  const auto it = health_.find(worker);
  if (it == health_.end()) return;
  it->second.consecutive_failures = 0;
  it->second.quarantined = false;  // a completed unit rehabilitates
}

void DistCoordinator::set_quarantine(QuarantineConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  quarantine_ = config;
}

bool DistCoordinator::worker_quarantined(const std::string& worker) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = health_.find(worker);
  return it != health_.end() && it->second.quarantined;
}

bool DistCoordinator::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

DistCoordinator::Counters DistCoordinator::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::uint64_t DistCoordinator::activity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return activity_;
}

}  // namespace dominosyn::dist
