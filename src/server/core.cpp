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

constexpr const char* kProbBuildsHelp =
    "Signal-probability builds by method: exact BDDs within the work budget, "
    "or the approximate fallback";

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

ServerCore::Instruments::Instruments(obs::MetricsRegistry& registry)
    : submitted(registry.counter("dominosyn_requests_submitted_total",
                                 "Requests ever submitted")),
      accepted(registry.counter("dominosyn_requests_accepted_total",
                                "Requests past admission control")),
      completed(registry.counter("dominosyn_requests_completed_total",
                                 "Requests served with status ok")),
      rejected_queue_full(
          registry.counter("dominosyn_requests_rejected_queue_full_total",
                           "Rejections: admission queue at capacity")),
      rejected_deadline(
          registry.counter("dominosyn_requests_rejected_deadline_total",
                           "Rejections: deadline expired while queued")),
      rejected_shutdown(
          registry.counter("dominosyn_requests_rejected_shutdown_total",
                           "Rejections: submitted after or cancelled by "
                           "shutdown")),
      errors(registry.counter("dominosyn_requests_error_total",
                              "Requests whose flow threw")),
      search_commits(registry.counter("dominosyn_search_commits_total",
                                      "Min-power commits across ok responses")),
      commit_rescore_pairs(
          registry.counter("dominosyn_commit_rescore_pairs_total",
                           "Pairs rescored by the incremental commit path")),
      avg_update_nodes(
          registry.counter("dominosyn_avg_update_nodes_total",
                           "Summed per-report average update-node counts")),
      exhaustive_searches(
          registry.counter("dominosyn_exhaustive_searches_total",
                           "Responses answered by the pruned exact search")),
      search_nodes_expanded(
          registry.counter("dominosyn_search_nodes_expanded_total",
                           "Branch-and-bound nodes expanded")),
      search_subtrees_pruned(
          registry.counter("dominosyn_search_subtrees_pruned_total",
                           "Branch-and-bound subtrees pruned")),
      retried_submits(
          registry.counter("dominosyn_requests_retried_total",
                           "Submits that arrived with a nonzero retry= "
                           "attempt (client re-submissions)")),
      reattached_submits(
          registry.counter("dominosyn_requests_reattached_total",
                           "Retried submits answered by attaching to the "
                           "in-flight/finished job of the same rid")),
      degraded_responses(
          registry.counter("dominosyn_responses_degraded_total",
                           "Responses served under overload brownout "
                           "(auto-exhaustive disabled)")),
      prob_builds_exact(registry.counter(
          "dominosyn_prob_builds_total{method=\"exact\"}", kProbBuildsHelp)),
      prob_builds_approx(registry.counter(
          "dominosyn_prob_builds_total{method=\"approx\"}", kProbBuildsHelp)),
      bound_tightness_sum(
          registry.double_sum("dominosyn_bound_tightness_sum",
                              "Summed bound-tightness ratios (divide by "
                              "exhaustive searches for the fleet average)")),
      queued_now(registry.gauge("dominosyn_requests_queued",
                                "Admitted, not yet started")),
      running_now(registry.gauge("dominosyn_requests_running",
                                 "Currently executing")),
      queue_us(registry.histogram("dominosyn_request_queue_us",
                                  "Admission-to-start latency, microseconds")),
      service_us(registry.histogram(
          "dominosyn_request_service_us",
          "Start-to-response latency, microseconds")) {}

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
    switch (response.status) {
      case ServerStatus::kOk:
        inst_.completed.add();
        inst_.search_commits.add(response.report.search_commits);
        inst_.commit_rescore_pairs.add(response.report.commit_rescore_pairs);
        inst_.avg_update_nodes.add(response.report.avg_update_nodes);
        inst_.search_nodes_expanded.add(response.report.search_nodes_expanded);
        inst_.search_subtrees_pruned.add(
            response.report.search_subtrees_pruned);
        if (response.telemetry.rebuilt.prob_builds > 0)
          (response.report.used_exact_bdd ? inst_.prob_builds_exact
                                          : inst_.prob_builds_approx)
              .add(response.telemetry.rebuilt.prob_builds);
        if (response.report.search_nodes_expanded > 0) {
          inst_.exhaustive_searches.add();
          inst_.bound_tightness_sum.add(
              response.report.search_bound_tightness);
        }
        break;
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
    if (brownout_active && options.mode == PhaseMode::kMinPower &&
        options.exhaustive_pos_limit > 0) {
      // Brownout: answer from the §4.1 heuristic alone.  Zeroing the limit
      // turns off the small-circuit auto-exhaustive upgrade (session.cpp);
      // explicit kExhaustivePower requests keep their contract.
      options.exhaustive_pos_limit = 0;
      response.telemetry.degraded = true;
      inst_.degraded_responses.add();
    }
    if (options.dist.enabled) {
      // Wire the request to this core's coordinator and make sure workers
      // can reconstruct the circuit; otherwise the request runs locally.
      options.dist.coordinator = &coordinator_;
      // The request fingerprint keys checkpoint journaling and crash-
      // recovery adoption (docs/robustness.md).
      options.dist.rid = pending.request.request_id;
      if (!options.dist.circuit.valid()) {
        options.dist.circuit.corpus = pending.request.corpus;
        options.dist.circuit.blif_text = pending.request.blif_text;
        options.dist.circuit.pi_prob = options.pi_prob;
        options.dist.circuit.load_aware = options.model.load_aware;
      }
      if (!options.dist.circuit.valid()) options.dist.enabled = false;
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
    snapshot.submitted = static_cast<std::size_t>(inst_.submitted.value());
    snapshot.accepted = static_cast<std::size_t>(inst_.accepted.value());
    snapshot.completed = static_cast<std::size_t>(inst_.completed.value());
    snapshot.rejected_queue_full =
        static_cast<std::size_t>(inst_.rejected_queue_full.value());
    snapshot.rejected_deadline =
        static_cast<std::size_t>(inst_.rejected_deadline.value());
    snapshot.rejected_shutdown =
        static_cast<std::size_t>(inst_.rejected_shutdown.value());
    snapshot.errors = static_cast<std::size_t>(inst_.errors.value());
    snapshot.search_commits =
        static_cast<std::size_t>(inst_.search_commits.value());
    snapshot.commit_rescore_pairs =
        static_cast<std::size_t>(inst_.commit_rescore_pairs.value());
    snapshot.avg_update_nodes =
        static_cast<std::size_t>(inst_.avg_update_nodes.value());
    snapshot.exhaustive_searches =
        static_cast<std::size_t>(inst_.exhaustive_searches.value());
    snapshot.search_nodes_expanded =
        static_cast<std::size_t>(inst_.search_nodes_expanded.value());
    snapshot.search_subtrees_pruned =
        static_cast<std::size_t>(inst_.search_subtrees_pruned.value());
    snapshot.bound_tightness_sum = inst_.bound_tightness_sum.value();
    snapshot.retried_submits =
        static_cast<std::size_t>(inst_.retried_submits.value());
    snapshot.reattached_submits =
        static_cast<std::size_t>(inst_.reattached_submits.value());
    snapshot.degraded_responses =
        static_cast<std::size_t>(inst_.degraded_responses.value());
    snapshot.queued_now = queued_;
    snapshot.running_now = running_;
  }
  // Latency histograms record outside mutex_ (the hot path is lock-free);
  // their snapshots are internally consistent by construction.
  snapshot.queue_us = inst_.queue_us.snapshot();
  snapshot.service_us = inst_.service_us.snapshot();
  snapshot.units_issued = static_cast<std::size_t>(fabric.units_issued);
  snapshot.units_stolen = static_cast<std::size_t>(fabric.units_stolen);
  snapshot.units_reissued = static_cast<std::size_t>(fabric.units_reissued);
  snapshot.incumbent_broadcasts =
      static_cast<std::size_t>(fabric.incumbent_broadcasts);
  snapshot.units_recovered = static_cast<std::size_t>(fabric.units_recovered);
  snapshot.workers_quarantined =
      static_cast<std::size_t>(fabric.workers_quarantined);
  snapshot.quarantine_probes =
      static_cast<std::size_t>(fabric.quarantine_probes);
  snapshot.faults_injected =
      static_cast<std::size_t>(fault::total_injected());
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
  fabric_counter("dominosyn_fabric_units_issued_total", fabric.units_issued);
  fabric_counter("dominosyn_fabric_units_stolen_total", fabric.units_stolen);
  fabric_counter("dominosyn_fabric_units_reissued_total",
                 fabric.units_reissued);
  fabric_counter("dominosyn_fabric_incumbent_broadcasts_total",
                 fabric.incumbent_broadcasts);
  fabric_counter("dominosyn_fabric_units_recovered_total",
                 fabric.units_recovered);
  fabric_counter("dominosyn_fabric_workers_quarantined_total",
                 fabric.workers_quarantined);
  fabric_counter("dominosyn_fabric_quarantine_probes_total",
                 fabric.quarantine_probes);
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
