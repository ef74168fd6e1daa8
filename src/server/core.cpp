/// \file core.cpp

#include "server/core.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace dominosyn {

namespace {

/// Stage builds between two snapshots of one session's counters.
FlowSession::Stats stats_delta(const FlowSession::Stats& after,
                               const FlowSession::Stats& before) {
  FlowSession::Stats delta;
  delta.synth_builds = after.synth_builds - before.synth_builds;
  delta.prob_builds = after.prob_builds - before.prob_builds;
  delta.context_builds = after.context_builds - before.context_builds;
  delta.assign_searches = after.assign_searches - before.assign_searches;
  delta.map_runs = after.map_runs - before.map_runs;
  delta.measure_runs = after.measure_runs - before.measure_runs;
  return delta;
}

ServerResponse rejection(ServerStatus status, std::string message) {
  ServerResponse response;
  response.status = status;
  response.error_message = std::move(message);
  return response;
}

}  // namespace

std::string_view to_string(ServerStatus status) noexcept {
  switch (status) {
    case ServerStatus::kOk: return "ok";
    case ServerStatus::kRejectedQueueFull: return "rejected_queue_full";
    case ServerStatus::kRejectedDeadline: return "rejected_deadline";
    case ServerStatus::kRejectedShutdown: return "rejected_shutdown";
    case ServerStatus::kError: return "error";
  }
  return "unknown";
}

ServerCore::ServerCore(ServerConfig config)
    : config_(config), inst_(metrics_) {
  if (config_.cache != nullptr) {
    cache_ = config_.cache;
  } else {
    owned_cache_ = std::make_unique<SessionCache>(config_.cache_capacity);
    cache_ = owned_cache_.get();
  }
  if (!config_.journal_dir.empty()) {
    // Replay (and arm) the durable checkpoint log before any worker can
    // open a job: crash-interrupted jobs become adoptable, and fresh job
    // ids start past every journaled one.
    checkpoint_ = std::make_unique<dist::checkpoint::CheckpointLog>(
        config_.journal_dir);
    coordinator_.set_checkpoint(checkpoint_.get());
  }
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  const unsigned total = ThreadPool::resolve_threads(config_.num_workers);
  workers_.reserve(total);
  for (unsigned i = 0; i < total; ++i)
    workers_.emplace_back([this] {
      while (auto task = ready_.pop()) (*task)();
    });
}

ServerCore::~ServerCore() { shutdown(/*drain=*/true); }

std::future<ServerResponse> ServerCore::submit(ServerRequest request) {
  if (request.network == nullptr)
    throw std::invalid_argument("ServerCore::submit: request has a null network");

  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->enqueued = std::chrono::steady_clock::now();
  pending->trace_id = obs::mint_trace_id();
  std::future<ServerResponse> future = pending->promise.get_future();
  const std::string key = pending->request.circuit.empty()
                              ? pending->request.network->name()
                              : pending->request.circuit;

  // Re-attach before admission: a *retry* of a known rid joins the original
  // request instead of re-entering the queue.  First attempts never match —
  // deliberate repeat-submits must keep re-executing.
  if (pending->request.retry_attempt > 0 &&
      !pending->request.request_id.empty()) {
    if (auto reattached = try_reattach(pending->request.request_id)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Counted as a submitted + retried + reattached submit, but never as
      // accepted: the stats invariant completed <= accepted <= submitted
      // stays intact (the original submission carries the acceptance).
      inst_.submitted.add();
      inst_.retried_submits.add();
      inst_.reattached_submits.add();
      return std::move(*reattached);
    }
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    inst_.submitted.add();
    if (pending->request.retry_attempt > 0) inst_.retried_submits.add();
    if (shutting_down_) {
      inst_.rejected_shutdown.add();
      pending->promise.set_value(rejection(
          ServerStatus::kRejectedShutdown, "server is shutting down"));
      return future;
    }
    if (queued_ >= config_.queue_capacity) {
      inst_.rejected_queue_full.add();
      pending->promise.set_value(rejection(
          ServerStatus::kRejectedQueueFull,
          "admission queue at capacity (" +
              std::to_string(config_.queue_capacity) + ")"));
      return future;
    }
    inst_.accepted.add();
    if (!pending->request.request_id.empty()) {
      // Register the rid for re-attach (nested mutex_ -> attach_mutex_, the
      // one allowed nesting).  First registration wins; concurrent repeats
      // of the same rid run normally without an attach record.
      const std::lock_guard<std::mutex> attach_lock(attach_mutex_);
      auto [it, inserted] =
          inflight_.try_emplace(pending->request.request_id, nullptr);
      if (inserted) {
        it->second = std::make_shared<AttachState>();
        pending->attach = it->second;
      }
    }
    ++queued_;
    inst_.queued_now.set(static_cast<std::int64_t>(queued_));
    if (active_.contains(key)) {
      // The key is busy: park the request in its FIFO lane instead of
      // letting it occupy (and block) a worker.
      waiting_[key].push_back(std::move(pending));
    } else {
      active_.insert(key);
      schedule_locked(key, std::move(pending));
    }
  }
  return future;
}

void ServerCore::schedule_locked(const std::string& key,
                                 std::shared_ptr<Pending> pending) {
  ready_.push([this, key, pending = std::move(pending)] { process(key, pending); });
}

void ServerCore::process(const std::string& key,
                         const std::shared_ptr<Pending>& pending) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
    ++running_;
    inst_.queued_now.set(static_cast<std::int64_t>(queued_));
    inst_.running_now.set(static_cast<std::int64_t>(running_));
  }

  ServerResponse response = execute(*pending);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (response.telemetry.degraded) inst_.degraded_responses.add();
    switch (response.status) {
      case ServerStatus::kOk: {
        inst_.completed.add();
        const SearchCounters& search = response.report.search;
#define DOMINOSYN_ADD(field, kind, metric, help, amount) \
  inst_.field.add(amount);
        DOMINOSYN_SEARCH_COUNTERS(DOMINOSYN_SEARCH_AGGREGATE, DOMINOSYN_ADD)
#undef DOMINOSYN_ADD
        if (response.telemetry.rebuilt.prob_builds > 0)
          (response.report.used_exact_bdd ? inst_.prob_builds_exact
                                          : inst_.prob_builds_approx)
              .add(response.telemetry.rebuilt.prob_builds);
        break;
      }
      case ServerStatus::kRejectedDeadline:
        inst_.rejected_deadline.add();
        break;
      case ServerStatus::kRejectedShutdown:
        inst_.rejected_shutdown.add();
        break;
      case ServerStatus::kError: inst_.errors.add(); break;
      default: break;
    }
  }
  if (pending->attach != nullptr) {
    // Publish to re-attach waiters before resolving the primary future —
    // once either side observes the response the other must too.
    resolve_attach(pending, response);
  }
  pending->promise.set_value(std::move(response));

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    inst_.running_now.set(static_cast<std::int64_t>(running_));
    const auto lane = waiting_.find(key);
    if (lane != waiting_.end() && !lane->second.empty()) {
      std::shared_ptr<Pending> next = std::move(lane->second.front());
      lane->second.pop_front();
      if (lane->second.empty()) waiting_.erase(lane);
      schedule_locked(key, std::move(next));
    } else {
      active_.erase(key);
    }
    if (queued_ == 0 && running_ == 0) idle_cv_.notify_all();
  }
}

std::optional<std::future<ServerResponse>> ServerCore::try_reattach(
    const std::string& rid) {
  std::promise<ServerResponse> ready;
  {
    const std::lock_guard<std::mutex> lock(attach_mutex_);
    std::shared_ptr<AttachState> state;
    if (const auto it = inflight_.find(rid); it != inflight_.end())
      state = it->second;
    else if (const auto fit = finished_.find(rid); fit != finished_.end())
      state = fit->second;
    if (state == nullptr) return std::nullopt;
    if (!state->done) {
      state->waiters.emplace_back();
      return state->waiters.back().get_future();
    }
    ready.set_value(state->response);
  }
  return ready.get_future();
}

void ServerCore::resolve_attach(const std::shared_ptr<Pending>& pending,
                                const ServerResponse& response) {
  std::vector<std::promise<ServerResponse>> waiters;
  {
    const std::lock_guard<std::mutex> lock(attach_mutex_);
    AttachState& state = *pending->attach;
    state.done = true;
    state.response = response;
    waiters = std::move(state.waiters);
    const std::string& rid = pending->request.request_id;
    if (const auto it = inflight_.find(rid);
        it != inflight_.end() && it->second == pending->attach)
      inflight_.erase(it);
    // Only served answers are worth a re-attach window; rejections and
    // errors should re-execute on retry.
    if (response.status == ServerStatus::kOk) {
      finished_[rid] = pending->attach;
      finished_order_.push_back(rid);
      while (finished_order_.size() > kFinishedWindow) {
        finished_.erase(finished_order_.front());
        finished_order_.pop_front();
      }
    }
  }
  // Waiter promises resolve outside the lock: their continuations run on
  // the waiting clients' threads.
  for (std::promise<ServerResponse>& waiter : waiters)
    waiter.set_value(response);
}

ServerCore::JobStatusResult ServerCore::job_status(
    const std::string& rid) const {
  JobStatusResult result;
  if (rid.empty()) return result;
  {
    const std::lock_guard<std::mutex> lock(attach_mutex_);
    if (inflight_.contains(rid)) {
      result.state = JobStatusResult::State::kRunning;
      return result;
    }
    if (const auto it = finished_.find(rid); it != finished_.end()) {
      result.state = JobStatusResult::State::kDone;
      result.response = it->second->response;
      return result;
    }
  }
  if (coordinator_.has_recovered(rid))
    result.state = JobStatusResult::State::kRecovered;
  return result;
}

ServerResponse ServerCore::execute(Pending& pending) {
  const auto start = std::chrono::steady_clock::now();
  const double queue_seconds =
      std::chrono::duration<double>(start - pending.enqueued).count();
  inst_.queue_us.record(static_cast<std::uint64_t>(queue_seconds * 1e6));

  // Every span below this point (flow stages, search commits, shipped work
  // units) carries the request's trace id.
  const obs::TraceContext trace_context(pending.trace_id);
  const obs::TraceSpan request_span("server.request", obs::SpanCat::kServer);

  bool brownout_active = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (cancel_queued_) {
      ServerResponse response = rejection(ServerStatus::kRejectedShutdown,
                                          "cancelled by non-drain shutdown");
      response.telemetry.queue_seconds = queue_seconds;
      return response;
    }
    brownout_active = config_.brownout_high_water != 0 &&
                      queued_ >= config_.brownout_high_water;
  }
  if (pending.request.deadline && start > *pending.request.deadline) {
    ServerResponse response = rejection(ServerStatus::kRejectedDeadline,
                                        "deadline expired while queued");
    response.telemetry.queue_seconds = queue_seconds;
    return response;
  }

  ServerResponse response;
  response.telemetry.queue_seconds = queue_seconds;
  Stopwatch stopwatch;
  try {
    const std::string& key = pending.request.circuit.empty()
                                 ? pending.request.network->name()
                                 : pending.request.circuit;
    FlowOptions& options = pending.request.options;
    // Answers never depend on the thread count, so more threads than the
    // hardware has only cost pids (the searches' pools, the fabric helpers).
    options.num_threads =
        std::min(options.num_threads, ThreadPool::resolve_threads(0));
    if (brownout_active && options.mode == PhaseMode::kMinPower &&
        min_power_searches_exactly(options,
                                   pending.request.network->num_pos())) {
      // Brownout: answer from the §4.1 heuristic alone.  Zeroing the limit
      // turns off the small-circuit auto-exhaustive upgrade (session.cpp);
      // explicit kExhaustivePower requests keep their contract.  Requests
      // that path would not serve anyway keep their options, so a hot
      // session is not rebuilt for an identical answer.
      options.exhaustive_pos_limit = 0;
      response.telemetry.degraded = true;
    }
    if (options.dist.enabled) {
      // Wire the request to this core's coordinator.  The request
      // fingerprint keys checkpoint journaling and crash-recovery adoption
      // (docs/robustness.md).
      options.dist.coordinator = &coordinator_;
      options.dist.rid = pending.request.request_id;
    }
    SessionCache::Lease lease =
        cache_->lease(key, *pending.request.network, pending.request.options);
    response.telemetry.cache_hit = lease.cache_hit();
    const FlowSession::Stats before = lease.session().stats();
    response.report = lease.session().report(pending.request.options.mode);
    response.telemetry.rebuilt = stats_delta(lease.session().stats(), before);
    response.status = ServerStatus::kOk;
  } catch (const std::exception& e) {
    response.status = ServerStatus::kError;
    response.error_message = e.what();
    response.error = std::current_exception();
  } catch (...) {
    response.status = ServerStatus::kError;
    response.error_message = "unknown exception";
    response.error = std::current_exception();
  }
  response.telemetry.service_seconds = stopwatch.seconds();
  inst_.service_us.record(
      static_cast<std::uint64_t>(response.telemetry.service_seconds * 1e6));
  if (config_.slow_request_seconds > 0.0 &&
      response.telemetry.service_seconds > config_.slow_request_seconds) {
    const std::string& key = pending.request.circuit.empty()
                                 ? pending.request.network->name()
                                 : pending.request.circuit;
    std::fprintf(stderr,
                 "dominosyn: slow request trace=%llu circuit=%s "
                 "queue=%.3fms service=%.3fms status=%.*s\n",
                 static_cast<unsigned long long>(pending.trace_id),
                 key.c_str(), queue_seconds * 1e3,
                 response.telemetry.service_seconds * 1e3,
                 static_cast<int>(to_string(response.status).size()),
                 to_string(response.status).data());
  }
  return response;
}

void ServerCore::shutdown(bool drain) {
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    if (!drain) cancel_queued_ = true;
  }
  // Resolve outstanding distributed jobs before waiting for idle: a flow
  // blocked on a job future would otherwise keep running_ > 0 forever.  The
  // cancelled jobs surface as DistSearchError and those flows finish locally.
  coordinator_.cancel_all();
  {
    // Queued work drains through the normal per-key dispatch (with
    // cancel_queued_ set, each request resolves kRejectedShutdown instead of
    // running); every admitted future resolves before the workers stop.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
  }
  if (workers_joined_) return;
  ready_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_joined_ = true;
  // Flush the checkpoint journal so a clean shutdown loses nothing to the
  // fsync batch.
  if (checkpoint_ != nullptr) {
    try {
      checkpoint_->sync();
    } catch (const std::exception&) {
    }
  }
}

ServerCore::Stats ServerCore::stats() const {
  const dist::DistCoordinator::Counters fabric = coordinator_.counters();
  Stats snapshot;
  {
    // One coherent snapshot: every admission/outcome counter mutates under
    // mutex_, so holding it here rules out torn cross-field reads — a
    // snapshot can never show completed > accepted or accepted > submitted.
    const std::lock_guard<std::mutex> lock(mutex_);
#define DOMINOSYN_READ_STAT(field, ...) \
  snapshot.field = static_cast<decltype(snapshot.field)>(inst_.field.value());
    DOMINOSYN_SERVER_COUNTERS(DOMINOSYN_READ_STAT, DOMINOSYN_IGNORE,
                              DOMINOSYN_IGNORE, DOMINOSYN_IGNORE)
#undef DOMINOSYN_READ_STAT
  }
#define DOMINOSYN_READ_FABRIC(field, pass) snapshot.field = fabric.field;
#define DOMINOSYN_READ_FAULTS(field) snapshot.field = fault::total_injected();
  DOMINOSYN_SERVER_COUNTERS(DOMINOSYN_IGNORE, DOMINOSYN_READ_FABRIC,
                            DOMINOSYN_READ_FAULTS, DOMINOSYN_IGNORE)
#undef DOMINOSYN_READ_FABRIC
#undef DOMINOSYN_READ_FAULTS
  // Latency histograms record outside mutex_ (the hot path is lock-free);
  // their snapshots are internally consistent by construction.
  snapshot.queue_us = inst_.queue_us.snapshot();
  snapshot.service_us = inst_.service_us.snapshot();
  return snapshot;
}

std::string ServerCore::prometheus_text() const {
  std::string out = metrics_.prometheus();
  const dist::DistCoordinator::Counters fabric = coordinator_.counters();
  const auto fabric_counter = [&out](const char* name, std::uint64_t value) {
    out += "# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  for (const int pass : {1, 2}) {
#define DOMINOSYN_FABRIC_TEXT(field, group) \
  if (pass == (group))                      \
    fabric_counter("dominosyn_fabric_" #field "_total", fabric.field);
    DOMINOSYN_SERVER_COUNTERS(DOMINOSYN_IGNORE, DOMINOSYN_FABRIC_TEXT,
                              DOMINOSYN_IGNORE, DOMINOSYN_IGNORE)
#undef DOMINOSYN_FABRIC_TEXT
  }
  out += "# HELP dominosyn_faults_injected_total Faults injected per site "
         "(docs/robustness.md; empty unless a fault spec is armed)\n";
  out += "# TYPE dominosyn_faults_injected_total counter\n";
  for (const auto& [site, tallies] : fault::counters()) {
    out += "dominosyn_faults_injected_total{site=\"";
    out += site;
    out += "\"} ";
    out += std::to_string(tallies.injected);
    out += '\n';
  }
  const obs::SpanCounts spans = obs::span_counts();
  out += "# HELP dominosyn_spans_total Completed trace spans per layer "
         "(local + ingested remote)\n";
  out += "# TYPE dominosyn_spans_total counter\n";
  for (std::size_t i = 0; i < obs::kNumSpanCats; ++i) {
    out += "dominosyn_spans_total{layer=\"";
    out += std::string(obs::span_cat_name(static_cast<obs::SpanCat>(i)));
    out += "\"} ";
    out += std::to_string(spans[i]);
    out += '\n';
  }
  return out;
}

}  // namespace dominosyn
