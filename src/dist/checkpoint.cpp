/// \file checkpoint.cpp
/// Durable job-state log over util/journal (see checkpoint.hpp).

#include "dist/checkpoint.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/codec.hpp"

namespace dominosyn::dist::checkpoint {

namespace {

using journal::JournalError;

// Record writers; replay_record is their decoder.

std::string open_record(std::uint64_t job_id, const std::string& rid,
                        std::uint32_t lease_timeout_ms, std::size_t units) {
  return "open job=" + std::to_string(job_id) +
         " rid=" + codec::percent_encode(rid) +
         " lease_ms=" + std::to_string(lease_timeout_ms) +
         " units=" + std::to_string(units);
}

std::string unit_record(const WorkUnit& unit) {
  return "unit " +
         format_work_grant(unit, std::numeric_limits<double>::infinity());
}

std::string incumbent_record(std::uint64_t job_id, double metric) {
  return "incumbent job=" + std::to_string(job_id) +
         " metric=" + codec::encode_double(metric);
}

std::string finish_record(std::uint64_t job_id, bool failed) {
  return "finish job=" + std::to_string(job_id) +
         " failed=" + std::string(failed ? "1" : "0");
}

}  // namespace

CheckpointLog::CheckpointLog(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
    throw JournalError("journal dir create failed: " + dir_ + ": " +
                       std::strerror(errno));

  // Replay: snapshot first (the compacted prefix of history), then the
  // journal (everything since).  Both scans stop at the last complete
  // record; corrupt content is a short read, never a crash.
  const journal::ScanResult snapshot = journal::scan_file(snapshot_path());
  const journal::ScanResult tail = journal::scan_file(journal_path());
  for (const std::string& record : snapshot.records) replay_record(record);
  for (const std::string& record : tail.records) replay_record(record);
  // A job whose unit lines did not all replay (an open torn before its
  // units, or a unit kind this build does not run) can be neither resumed
  // nor adopted.
  std::erase_if(state_, [](const auto& entry) {
    return std::any_of(entry.second.units.begin(), entry.second.units.end(),
                       [&entry](const WorkUnit& unit) {
                         return unit.job_id != entry.first;
                       });
  });

  replay_.records = snapshot.records.size() + tail.records.size();
  replay_.torn_tail = snapshot.torn_tail || tail.torn_tail;
  replay_.dropped_bytes = snapshot.dropped_bytes + tail.dropped_bytes;
  for (const auto& [id, job] : state_) {
    ++replay_.jobs;
    if (!job.finished) ++replay_.live_jobs;
    replay_.units += job.units.size();
    for (const auto& result : job.results)
      replay_.completed_units += result.has_value() ? 1 : 0;
  }

  // Boot-time compaction: folds the replayed journal into the snapshot and
  // starts an empty journal.  This is what makes a torn tail *recoverable*
  // rather than merely detected — appending behind a torn fragment would put
  // every new record past the point replay trusts.
  const std::lock_guard<std::mutex> lock(mutex_);
  compact_locked();
}

void CheckpointLog::replay_record(const std::string& payload) {
  try {
    const std::size_t space = payload.find(' ');
    const std::string_view verb = std::string_view(payload).substr(0, space);
    if (verb == "unit") {
      if (space == std::string::npos) return;
      const auto grant = parse_work_grant(payload.substr(space + 1));
      if (!grant) return;
      const auto it = state_.find(grant->unit.job_id);
      if (it == state_.end()) return;  // compaction dropped the open
      JobState& job = it->second;
      const std::size_t index = static_cast<std::size_t>(grant->unit.unit_id);
      if (index >= job.units.size()) return;
      job.units[index] = grant->unit;
      return;
    }
    // Every other record is a `key=value` line; a field that is missing or
    // does not decode makes the whole record unparsable.
    const std::vector<std::string_view> tokens = codec::split_tokens(payload);
    const auto u64 = [&tokens](std::string_view key) {
      return codec::decode_u64(codec::find_field(tokens, key));
    };
    if (verb == "open") {
      const std::uint64_t job_id = u64("job");
      if (job_id == 0) return;
      JobState job;
      job.rid = codec::percent_decode(codec::find_field(tokens, "rid").value);
      job.lease_timeout_ms = codec::narrow_u32("lease_ms", u64("lease_ms"));
      job.expected_units = static_cast<std::size_t>(u64("units"));
      job.units.resize(job.expected_units);
      job.results.resize(job.expected_units);
      state_.insert_or_assign(job_id, std::move(job));
    } else if (verb == "complete_work") {
      UnitResult result = parse_complete_tokens(tokens);
      const auto it = state_.find(result.job_id);
      if (it == state_.end()) return;
      JobState& job = it->second;
      const std::size_t index = static_cast<std::size_t>(result.unit_id);
      if (index >= job.results.size()) return;
      if (job.results[index].has_value()) return;  // keep-first
      job.results[index] = std::move(result);
    } else if (verb == "incumbent") {
      const auto it = state_.find(u64("job"));
      if (it == state_.end()) return;
      const double metric =
          codec::decode_double(codec::find_field(tokens, "metric"));
      if (metric < it->second.incumbent) it->second.incumbent = metric;
    } else if (verb == "finish") {
      const auto it = state_.find(u64("job"));
      if (it == state_.end()) return;
      it->second.failed =
          codec::decode_flag(codec::find_field(tokens, "failed"));
      it->second.finished = true;
    } else if (verb == "adopt") {
      // A restarted coordinator re-journaled this job under a new id; the
      // old entry is redundant history.
      state_.erase(u64("job"));
    }
    // Unknown verbs: skip — a newer incarnation may add record types.
  } catch (const std::exception&) {
    // A record that frames and CRCs but no longer parses (version drift)
    // must not kill recovery of everything around it.
  }
}

void CheckpointLog::append_locked(const std::string& payload) {
  writer_.append(payload);
  ++journal_records_;
}

void CheckpointLog::record_open(std::uint64_t job_id, const std::string& rid,
                                std::uint32_t lease_timeout_ms,
                                const std::vector<WorkUnit>& units) {
  const std::lock_guard<std::mutex> lock(mutex_);
  JobState job;
  job.rid = rid;
  job.lease_timeout_ms = lease_timeout_ms;
  job.expected_units = units.size();
  job.units = units;
  job.results.resize(units.size());

  append_locked(open_record(job_id, rid, lease_timeout_ms, units.size()));
  for (const WorkUnit& unit : units) append_locked(unit_record(unit));
  state_.insert_or_assign(job_id, std::move(job));
}

void CheckpointLog::record_complete(const UnitResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = state_.find(result.job_id);
  if (it == state_.end()) return;  // job not journaled (no rid)
  const std::size_t index = static_cast<std::size_t>(result.unit_id);
  if (index >= it->second.results.size() ||
      it->second.results[index].has_value())
    return;
  append_locked(format_complete_command("journal", result));
  it->second.results[index] = result;
}

void CheckpointLog::record_incumbent(std::uint64_t job_id, double metric) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = state_.find(job_id);
  if (it == state_.end()) return;
  if (!(metric < it->second.incumbent)) return;
  append_locked(incumbent_record(job_id, metric));
  it->second.incumbent = metric;
}

void CheckpointLog::record_finish(std::uint64_t job_id, bool failed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = state_.find(job_id);
  if (it == state_.end()) return;
  append_locked(finish_record(job_id, failed));
  it->second.finished = true;
  it->second.failed = failed;
  // The finish record makes the job's result durable before the client sees
  // it; force it to disk rather than waiting out the fsync batch.
  writer_.sync();
  if (journal_records_ >= options_.compact_after_records) compact_locked();
}

void CheckpointLog::record_adopted(std::uint64_t journal_job_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_.erase(journal_job_id) == 0) return;
  append_locked("adopt job=" + std::to_string(journal_job_id));
}

void CheckpointLog::sync() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (writer_.is_open()) writer_.sync();
}

std::vector<RecoveredJob> CheckpointLog::take_recovered() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RecoveredJob> out;
  if (recovered_taken_) return out;
  recovered_taken_ = true;
  for (const auto& [id, job] : state_) {
    if (job.failed) continue;  // fail-fast already answered; nothing to resume
    RecoveredJob recovered;
    recovered.journal_job_id = id;
    recovered.rid = job.rid;
    recovered.lease_timeout_ms = job.lease_timeout_ms;
    recovered.units = job.units;
    recovered.results = job.results;
    recovered.incumbent = job.incumbent;
    recovered.finished = job.finished;
    recovered.failed = job.failed;
    out.push_back(std::move(recovered));
  }
  return out;
}

std::uint64_t CheckpointLog::max_job_id() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.empty() ? 0 : state_.rbegin()->first;
}

std::string CheckpointLog::journal_path() const {
  return dir_ + "/journal.djl";
}

std::string CheckpointLog::snapshot_path() const {
  return dir_ + "/snapshot.djl";
}

std::uint64_t CheckpointLog::journal_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return journal_records_;
}

void CheckpointLog::serialize_job(std::uint64_t job_id, const JobState& job,
                                  std::string& out) {
  out += journal::frame_record(
      open_record(job_id, job.rid, job.lease_timeout_ms, job.units.size()));
  for (const WorkUnit& unit : job.units)
    out += journal::frame_record(unit_record(unit));
  for (const auto& result : job.results)
    if (result.has_value())
      out += journal::frame_record(format_complete_command("journal", *result));
  if (job.incumbent < std::numeric_limits<double>::infinity())
    out += journal::frame_record(incumbent_record(job_id, job.incumbent));
  if (job.finished)
    out += journal::frame_record(finish_record(job_id, job.failed));
}

void CheckpointLog::compact_locked() {
  // Drop failed jobs and all but the newest keep_finished finished jobs —
  // replay cost stays proportional to live state.
  std::vector<std::uint64_t> finished_ids;
  for (auto it = state_.begin(); it != state_.end();) {
    if (it->second.failed) {
      it = state_.erase(it);
    } else {
      if (it->second.finished) finished_ids.push_back(it->first);
      ++it;
    }
  }
  if (finished_ids.size() > options_.keep_finished) {
    const std::size_t evict = finished_ids.size() - options_.keep_finished;
    for (std::size_t i = 0; i < evict; ++i) state_.erase(finished_ids[i]);
  }

  std::string snapshot;
  for (const auto& [id, job] : state_) serialize_job(id, job, snapshot);
  journal::atomic_replace(snapshot_path(), snapshot);
  writer_.open_truncated(journal_path(),
                         journal::Writer::Options{options_.fsync_every});
  journal_records_ = 0;
}

}  // namespace dominosyn::dist::checkpoint
