/// \file core.hpp
/// Transport-independent serving core for phase-assignment flows.
///
/// `ServerCore` is the process behind both the `dominod` daemon and
/// `run_flow_batch`: it owns one hot `SessionCache` plus a pool of dedicated
/// workers, and turns submitted (circuit, options) requests into
/// `FlowReport`s with explicit admission control:
///
///   * bounded queue — at most `queue_capacity` admitted-but-not-started
///     requests; over-capacity submissions resolve immediately with
///     `kRejectedQueueFull` instead of piling up,
///   * per-request deadline — a request whose deadline passed while it
///     waited is rejected (`kRejectedDeadline`) without running,
///   * graceful drain — `shutdown()` stops admitting, finishes (or, with
///     drain = false, cleanly rejects) everything in flight, and joins the
///     workers; every future ever returned by submit() resolves.
///
/// Concurrency model: per-circuit single-flight.  Requests are FIFO-ordered
/// per session key and only one request per key runs at a time, so all
/// same-circuit traffic shares one cached `FlowSession` (its stage artifacts
/// rebuild only when options actually change) while distinct circuits run on
/// as many workers as are free.  The per-key serialization itself lives in
/// `SessionCache::lease`; the core's dispatcher additionally keeps waiting
/// same-key requests off the workers, so a burst on one hot circuit cannot
/// occupy the whole pool.
///
/// Responses carry telemetry — cache hit, the stage builds this request
/// actually triggered, queue wait and service time — so clients can observe
/// the cache economics end to end.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "flow/batch.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dominosyn {

struct ServerRequest {
  /// Session-cache key; empty = network->name().
  std::string circuit;
  /// The circuit to serve.  May be owning (daemon-parsed BLIF / generated
  /// corpus) or a non-owning alias of caller-kept storage (run_flow_batch).
  std::shared_ptr<const Network> network;
  FlowOptions options;
  /// Reject instead of running when this point passed while queued.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// How the circuit was described on the wire, kept so dist-enabled requests
  /// can ship a reconstructible spec to workers: the corpus name or the
  /// verbatim inline-BLIF text (at most one non-empty).  In-process callers
  /// may leave both empty and fill options.dist.circuit themselves.
  std::string corpus;
  std::string blif_text;
  /// Client-assigned idempotency fingerprint (`rid=` on the wire).  Serving
  /// is deterministic, so a re-submitted fingerprint returns the same bytes;
  /// the id exists for log/trace correlation across retries.
  std::string request_id;
  /// Which retry this submission is (0 = first attempt, `retry=` on the
  /// wire).  Nonzero attempts are counted as retried submits in Stats.
  unsigned retry_attempt = 0;
};

enum class ServerStatus : std::uint8_t {
  kOk,
  kRejectedQueueFull,  ///< admission queue at capacity
  kRejectedDeadline,   ///< deadline expired before the request ran
  kRejectedShutdown,   ///< submitted after (or cancelled by) shutdown
  kError,              ///< the flow itself threw
};

[[nodiscard]] std::string_view to_string(ServerStatus status) noexcept;

/// What serving this request actually cost, beyond the report itself.
struct ServerTelemetry {
  /// Served from a valid cached session (stage artifacts potentially hot).
  bool cache_hit = false;
  /// Stage builds this request triggered (all-zero = fully hot service).
  FlowSession::Stats rebuilt;
  double queue_seconds = 0.0;    ///< admission to start of service
  double service_seconds = 0.0;  ///< lease + stage work + report composition
  /// Served under overload brownout: min-power auto-exhaustive was disabled
  /// and the §4.1 heuristic answered instead (docs/robustness.md).
  bool degraded = false;
};

struct ServerResponse {
  ServerStatus status = ServerStatus::kOk;
  FlowReport report;          ///< valid when status == kOk
  std::string error_message;  ///< human-readable, set for every non-kOk status
  /// The flow's exception when status == kError — in-process clients
  /// (run_flow_batch) rethrow the original type from this.
  std::exception_ptr error;
  ServerTelemetry telemetry;
};

struct ServerConfig {
  /// Dedicated worker threads; 0 = one per hardware thread.
  unsigned num_workers = 1;
  /// Max admitted-but-not-started requests before kRejectedQueueFull.
  std::size_t queue_capacity = 64;
  /// Long-lived external cache to serve from; nullptr = core-owned cache.
  SessionCache* cache = nullptr;
  /// Capacity of the core-owned cache when `cache` is nullptr.
  std::size_t cache_capacity = 8;
  /// Log requests whose service time exceeds this to stderr (trace id,
  /// circuit, timings); 0 disables.  dominod exposes it as --slow-ms.
  double slow_request_seconds = 0.0;
  /// Overload brownout (docs/robustness.md): when the admission queue holds
  /// `brownout_high_water`+ requests at service start, min-power requests
  /// that the auto-exhaustive path would serve (0 < #POs <= the limit) are
  /// answered by the §4.1 heuristic alone and flagged `degraded=1` —
  /// trading a few percent of power optimality for latency instead of
  /// escalating to kRejectedQueueFull.  Explicit exhaustive-mode requests
  /// are never degraded.  0 = brownout off.
  std::size_t brownout_high_water = 0;
  /// Durable job state (docs/robustness.md): directory for the write-ahead
  /// checkpoint journal.  Non-empty arms journaling of every rid-carrying
  /// distributed job and replays the directory's journal at construction,
  /// making crash-interrupted jobs adoptable (`dominod --journal-dir`).
  /// Empty = durability off.
  std::string journal_dir;
};

/// The serving core's telemetry, declared once, in the order of the `stats`
/// answer's "server" section (docs/observability.md).  The rows generate
/// ServerCore::Stats, the registry instruments behind it, stats(), that
/// section of the answer, and the registered or fabric series of `metrics`.
/// Row forms:
///   STAT(field, kind, metric, help[, amount])  registry instrument `kind`
///       (counter, gauge or double_sum) named `metric`, read into
///       Stats::field; the search aggregates add `amount` per ok response;
///   FABRIC(field, pass)  Stats::field read from DistCoordinator::counters(),
///       exposed as dominosyn_fabric_<field>_total, the lease counters
///       (pass 1) before the recovery counters (pass 2);
///   FAULTS(field)  Stats::field = fault::total_injected();
///   SERIES(field, kind, metric, help)  a registry instrument with no Stats
///       field.
/// The search counters' aggregates (DOMINOSYN_SEARCH_COUNTERS) follow
/// running_now.  Adding a counter means one row plus the code that counts it.
#define DOMINOSYN_PROB_HELP                                                    \
  "Signal-probability builds by method: exact BDDs within the work budget, "   \
  "or the approximate fallback"
#define DOMINOSYN_SERVER_COUNTERS(STAT, FABRIC, FAULTS, SERIES)                \
  STAT(submitted, counter, "dominosyn_requests_submitted_total",               \
       "Requests ever submitted")                                              \
  STAT(accepted, counter, "dominosyn_requests_accepted_total",                 \
       "Requests past admission control")                                      \
  STAT(completed, counter, "dominosyn_requests_completed_total",               \
       "Requests served with status ok")                                       \
  STAT(rejected_queue_full, counter,                                           \
       "dominosyn_requests_rejected_queue_full_total",                         \
       "Rejections: admission queue at capacity")                              \
  STAT(rejected_deadline, counter,                                             \
       "dominosyn_requests_rejected_deadline_total",                           \
       "Rejections: deadline expired while queued")                            \
  STAT(rejected_shutdown, counter,                                             \
       "dominosyn_requests_rejected_shutdown_total",                           \
       "Rejections: submitted after or cancelled by shutdown")                 \
  STAT(errors, counter, "dominosyn_requests_error_total",                      \
       "Requests whose flow threw")                                            \
  STAT(queued_now, gauge, "dominosyn_requests_queued",                         \
       "Admitted, not yet started")                                            \
  STAT(running_now, gauge, "dominosyn_requests_running",                       \
       "Currently executing")                                                  \
  DOMINOSYN_SEARCH_COUNTERS(DOMINOSYN_SEARCH_AGGREGATE, STAT)                  \
  FABRIC(units_issued, 1)                                                      \
  FABRIC(units_stolen, 1)                                                      \
  FABRIC(units_reissued, 1)                                                    \
  FABRIC(units_recovered, 2)                                                   \
  FABRIC(incumbent_broadcasts, 1)                                              \
  STAT(retried_submits, counter, "dominosyn_requests_retried_total",           \
       "Submits that arrived with a nonzero retry= attempt (client "           \
       "re-submissions)")                                                      \
  STAT(reattached_submits, counter, "dominosyn_requests_reattached_total",     \
       "Retried submits answered by attaching to the in-flight/finished job "  \
       "of the same rid")                                                      \
  STAT(degraded_responses, counter, "dominosyn_responses_degraded_total",      \
       "Responses served under overload brownout (auto-exhaustive disabled)")  \
  FABRIC(workers_quarantined, 2)                                               \
  FABRIC(quarantine_probes, 2)                                                 \
  FAULTS(faults_injected)                                                      \
  SERIES(prob_builds_exact, counter,                                           \
         "dominosyn_prob_builds_total{method=\"exact\"}", DOMINOSYN_PROB_HELP) \
  SERIES(prob_builds_approx, counter,                                          \
         "dominosyn_prob_builds_total{method=\"approx\"}", DOMINOSYN_PROB_HELP)

/// A search-list row as the STAT rows its server rule aggregates into
/// (phase/search.hpp).  The trailing argument is the amount one response
/// adds, in terms of its SearchCounters `search`.
#define DOMINOSYN_SEARCH_AGGREGATE(rule, type, field, key, help, STAT)         \
  DOMINOSYN_SEARCH_AGGREGATE_##rule(STAT, field, key, help)
#define DOMINOSYN_SEARCH_AGGREGATE_NONE(STAT, field, key, help)
#define DOMINOSYN_SEARCH_AGGREGATE_SUM(STAT, field, key, help)                 \
  STAT(key, counter, "dominosyn_" #key "_total", help, search.field)
#define DOMINOSYN_SEARCH_AGGREGATE_SUM_COUNT(STAT, field, key, help)           \
  STAT(exhaustive_searches, counter, "dominosyn_exhaustive_searches_total",    \
       "Responses answered by the pruned exact search",                        \
       search.field > 0 ? 1 : 0)                                               \
  DOMINOSYN_SEARCH_AGGREGATE_SUM(STAT, field, key, help)
#define DOMINOSYN_SEARCH_AGGREGATE_TIGHTNESS(STAT, field, key, help)           \
  STAT(bound_tightness_sum, double_sum, "dominosyn_bound_tightness_sum", help, \
       search.nodes_expanded > 0 ? search.field : 0.0)

/// The Stats type of each registry kind.
#define DOMINOSYN_STAT_TYPE_counter std::size_t
#define DOMINOSYN_STAT_TYPE_gauge std::size_t
#define DOMINOSYN_STAT_TYPE_double_sum double
#define DOMINOSYN_IGNORE(...)

class ServerCore {
 public:
  /// A snapshot of the DOMINOSYN_SERVER_COUNTERS rows: admission/outcome
  /// counters (completed = kOk responses), queue-depth gauges, the summed
  /// search counters of the served reports, the distributed-fabric and
  /// robustness counters (docs/robustness.md), and the request latency
  /// distributions in microseconds (admission→start, start→response;
  /// quantile() gives p50/p95/p99).
  struct Stats {
#define DOMINOSYN_STAT_FIELD(field, kind, ...) \
  DOMINOSYN_STAT_TYPE_##kind field = 0;
#define DOMINOSYN_COUNT_FIELD(field, ...) std::size_t field = 0;
    DOMINOSYN_SERVER_COUNTERS(DOMINOSYN_STAT_FIELD, DOMINOSYN_COUNT_FIELD,
                              DOMINOSYN_COUNT_FIELD, DOMINOSYN_IGNORE)
#undef DOMINOSYN_STAT_FIELD
#undef DOMINOSYN_COUNT_FIELD
    obs::HistogramSnapshot queue_us;
    obs::HistogramSnapshot service_us;
  };

  explicit ServerCore(ServerConfig config = {});
  /// shutdown(/*drain=*/true).
  ~ServerCore();
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Admits (or rejects) the request and returns its eventual response.
  /// Every returned future resolves — rejections resolve immediately with a
  /// non-kOk status rather than throwing.  Throws std::invalid_argument only
  /// on a null network.
  ///
  /// Re-attach (docs/robustness.md): a submit carrying a nonzero
  /// retry_attempt and a request_id that matches an in-flight or recently
  /// finished request returns *that* request's response instead of
  /// re-executing — the retry path after a daemon restart resumes rather
  /// than redoes.  First attempts (retry_attempt == 0) always execute, so
  /// deliberate repeat-submits (soaks, benchmarks) keep their semantics.
  [[nodiscard]] std::future<ServerResponse> submit(ServerRequest request);

  /// Where a rid currently stands, for the `job_status` protocol verb and
  /// `domino_cli --attach`.
  struct JobStatusResult {
    enum class State : std::uint8_t {
      kUnknown,    ///< never seen (or evicted from the finished window)
      kRunning,    ///< in flight right now
      kRecovered,  ///< journal-recovered, awaiting re-attach adoption
      kDone,       ///< finished; `response` holds the served result
    };
    State state = State::kUnknown;
    ServerResponse response;  ///< valid when state == kDone
  };
  [[nodiscard]] JobStatusResult job_status(const std::string& rid) const;

  /// Startup journal-replay summary; nullptr when durability is off.
  [[nodiscard]] const dist::checkpoint::ReplayStats* recovery() const {
    return checkpoint_ == nullptr ? nullptr : &checkpoint_->replay_stats();
  }

  /// Stops admitting, resolves all queued + running requests (running work
  /// always finishes; queued work finishes when `drain`, else resolves
  /// kRejectedShutdown), and joins the workers.  Idempotent.
  void shutdown(bool drain = true);

  [[nodiscard]] Stats stats() const;
  /// The core's metric collection (counters/gauges/histograms behind the
  /// Stats facade).  Prometheus exposition via prometheus_text().
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return metrics_; }
  /// Prometheus text exposition of every registered metric, the
  /// distributed-fabric counters, and the per-layer span counts (the
  /// `metrics` protocol verb serves this).
  [[nodiscard]] std::string prometheus_text() const;
  [[nodiscard]] SessionCache& cache() noexcept { return *cache_; }
  /// The core's distributed-search coordinator; the transport serves its
  /// lease_work / steal / fetch_circuit / complete_work / push_incumbent
  /// verbs against it.
  [[nodiscard]] dist::DistCoordinator& coordinator() noexcept {
    return coordinator_;
  }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] unsigned num_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  /// Re-attach record of one rid: later retries of the same request park a
  /// waiter promise here instead of re-entering admission.  All fields are
  /// guarded by attach_mutex_; waiter promises are resolved *outside* it.
  struct AttachState {
    bool done = false;
    ServerResponse response;  ///< valid when done
    std::vector<std::promise<ServerResponse>> waiters;
  };

  struct Pending {
    ServerRequest request;
    std::promise<ServerResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t trace_id = 0;  ///< minted at submit, spans the request
    /// This request's re-attach record (null when it carries no rid or a
    /// duplicate rid is already registered — first wins).
    std::shared_ptr<AttachState> attach;
  };

  /// Registry-backed instruments behind the Stats facade, registered on
  /// construction — the hot paths never look a metric up by name.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& metrics) : registry(metrics) {}
    obs::MetricsRegistry& registry;
#define DOMINOSYN_INSTRUMENT(field, kind, metric, help, ...) \
  decltype(registry.kind("")) field = registry.kind(metric, help);
    DOMINOSYN_SERVER_COUNTERS(DOMINOSYN_INSTRUMENT, DOMINOSYN_IGNORE,
                              DOMINOSYN_IGNORE, DOMINOSYN_INSTRUMENT)
#undef DOMINOSYN_INSTRUMENT
    obs::Histogram& queue_us =
        registry.histogram("dominosyn_request_queue_us",
                           "Admission-to-start latency, microseconds");
    obs::Histogram& service_us = registry.histogram(
        "dominosyn_request_service_us",
        "Start-to-response latency, microseconds");
  };

  void schedule_locked(const std::string& key, std::shared_ptr<Pending> pending);
  void process(const std::string& key, const std::shared_ptr<Pending>& pending);
  [[nodiscard]] ServerResponse execute(Pending& pending);
  /// Attach to the in-flight/finished request of `rid`; nullopt = no match
  /// (run normally).  Takes only attach_mutex_.
  [[nodiscard]] std::optional<std::future<ServerResponse>> try_reattach(
      const std::string& rid);
  /// Publish a finished request's response to its attach record and resolve
  /// the parked waiters.
  void resolve_attach(const std::shared_ptr<Pending>& pending,
                      const ServerResponse& response);

  ServerConfig config_;
  std::unique_ptr<SessionCache> owned_cache_;
  SessionCache* cache_ = nullptr;
  /// Declared before coordinator_ so the coordinator (which borrows the
  /// log via set_checkpoint) is destroyed first.  nullptr = durability off.
  std::unique_ptr<dist::checkpoint::CheckpointLog> checkpoint_;
  dist::DistCoordinator coordinator_;
  obs::MetricsRegistry metrics_;
  Instruments inst_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  /// Per-key FIFO lanes of admitted requests waiting for their key.
  std::unordered_map<std::string, std::deque<std::shared_ptr<Pending>>> waiting_;
  /// Keys with a request scheduled or running.
  std::unordered_set<std::string> active_;
  std::size_t queued_ = 0;   ///< admitted, not yet started
  std::size_t running_ = 0;  ///< currently executing
  bool shutting_down_ = false;
  bool cancel_queued_ = false;

  /// Re-attach registry.  Lock order: mutex_ -> attach_mutex_ when nested
  /// (registration on acceptance); never the reverse.
  mutable std::mutex attach_mutex_;
  std::unordered_map<std::string, std::shared_ptr<AttachState>> inflight_;
  /// Recently finished kOk responses, bounded FIFO — the re-attach window
  /// for clients whose daemon restarted between service and response.
  std::unordered_map<std::string, std::shared_ptr<AttachState>> finished_;
  std::deque<std::string> finished_order_;
  static constexpr std::size_t kFinishedWindow = 128;

  std::mutex shutdown_mutex_;
  bool workers_joined_ = false;

  TaskQueue ready_;
  std::vector<std::thread> workers_;
};

}  // namespace dominosyn
