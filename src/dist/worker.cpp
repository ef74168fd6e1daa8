/// \file worker.cpp

#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "benchgen/benchgen.hpp"
#include "blif/blif.hpp"
#include "dist/search.hpp"
#include "flow/session.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "util/codec.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dominosyn::dist {

namespace {

/// A job's circuit, rebuilt from its spec (precedence: generator
/// parameters, verbatim BLIF, paper-corpus name).  A corpus circuit is copied
/// from the process-wide paper_network.
Network reconstruct_network(const CircuitSpec& circuit) {
  if (circuit.has_bench) return generate_benchmark(circuit.bench);
  if (!circuit.blif_text.empty()) return blif::read_string(circuit.blif_text);
  if (!circuit.corpus.empty()) return *paper_network(circuit.corpus);
  throw std::runtime_error("circuit payload carries no circuit spec");
}

/// A circuit key as text: the worker's cache key (everything a prepared
/// evaluator depends on) and how errors name a circuit.
std::string describe(const CircuitKey& key) {
  return "fingerprint " + std::to_string(key.fingerprint) + " pi_prob " +
         codec::encode_double(key.pi_prob) + " load_aware " +
         (key.load_aware ? "1" : "0");
}

/// Incumbent exchange over the worker's own connection: current() reads the
/// locally-mirrored job incumbent (refreshed by every ack), publish() sends
/// push_incumbent synchronously — each worker thread owns its client, so the
/// round trip never races another request on the same connection.
class ClientChannel final : public IncumbentChannel {
 public:
  ClientChannel(Client& client, std::string worker, std::uint64_t job_id,
                double incumbent)
      : client_(client),
        worker_(std::move(worker)),
        job_id_(job_id),
        incumbent_(incumbent) {}

  [[nodiscard]] double current() override { return incumbent_; }

  void publish(double metric) override {
    if (metric >= incumbent_) return;
    incumbent_ = metric;
    try {
      const std::string ack =
          client_.request(format_push_command(worker_, job_id_, metric));
      incumbent_ = std::min(incumbent_, parse_incumbent(ack));
    } catch (const std::exception&) {
      // A lost broadcast only costs pruning opportunity, never correctness;
      // the connection error will surface on the next lease/complete.
    }
  }

 private:
  Client& client_;
  std::string worker_;
  std::uint64_t job_id_;
  double incumbent_;
};

}  // namespace

/// One prepared circuit: the FlowSession owns the synthesized network the
/// evaluator references.
struct DistWorker::CachedEvaluator {
  CachedEvaluator(Network net, const FlowOptions& options)
      : session(std::move(net), options) {}

  /// Rebuilds the payload's circuit and builds its evaluator on the
  /// coordinator's probabilities once they are shown to fit: the payload is
  /// the unit's circuit, the rebuilt network has the coordinator's
  /// fingerprint, and there is one probability in [0, 1] per node.  Throws,
  /// naming the first misfit.
  static std::shared_ptr<CachedEvaluator> prepare(const CircuitKey& key,
                                                  CircuitPayload payload);

  FlowSession session;
  std::optional<AssignmentEvaluator> evaluator;
};

std::shared_ptr<DistWorker::CachedEvaluator>
DistWorker::CachedEvaluator::prepare(const CircuitKey& key,
                                     CircuitPayload payload) {
  if (payload.circuit.key != key)
    throw std::runtime_error("circuit payload for another circuit: unit " +
                             describe(key) + ", payload " +
                             describe(payload.circuit.key));
  // The model FlowSession::evaluator() would use.  Sessions with other
  // probability or model options never use the fabric (fabric_replays in
  // flow/session.cpp), so defaults plus the key are all it needs.
  FlowOptions options;
  options.pi_prob = key.pi_prob;
  options.model.load_aware = key.load_aware;
  auto entry = std::make_shared<CachedEvaluator>(
      reconstruct_network(payload.circuit), options);
  const Network& net = entry->session.synthesized();
  const std::uint64_t fingerprint = network_fingerprint(net);
  if (fingerprint != key.fingerprint)
    throw std::runtime_error("circuit fingerprint mismatch: coordinator " +
                             std::to_string(key.fingerprint) + ", worker " +
                             std::to_string(fingerprint));
  const std::vector<double>& probs = payload.probs;
  if (probs.size() != net.num_nodes())
    throw std::runtime_error(
        "circuit payload has " + std::to_string(probs.size()) +
        " probabilities for " + std::to_string(net.num_nodes()) + " nodes");
  for (std::size_t id = 0; id < probs.size(); ++id) {
    if (!(probs[id] >= 0.0 && probs[id] <= 1.0))  // NaN fails both
      throw std::runtime_error("circuit payload probability " +
                               codec::encode_double(probs[id]) + " of node " +
                               std::to_string(id) + " is not in [0, 1]");
  }
  entry->evaluator.emplace(net, std::move(payload.probs), options.model);
  return entry;
}

DistWorker::DistWorker(WorkerConfig config) : config_(std::move(config)) {}

DistWorker::~DistWorker() { stop(); }

void DistWorker::start() {
  if (started_) return;
  started_ = true;
  stop_.store(false);
  const unsigned count = ThreadPool::resolve_threads(config_.num_threads);
  threads_.reserve(count);
  for (unsigned k = 0; k < count; ++k)
    threads_.emplace_back([this, k] { thread_main(k); });
}

void DistWorker::stop() {
  if (!started_) return;
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  started_ = false;
}

std::shared_ptr<DistWorker::CachedEvaluator> DistWorker::find_cached(
    const CircuitKey& key) {
  const std::string wanted = describe(key);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it =
      std::find_if(cache_.begin(), cache_.end(),
                   [&](const auto& entry) { return entry.first == wanted; });
  if (it == cache_.end()) return nullptr;
  cache_.splice(cache_.begin(), cache_, it);  // most recently used first
  return it->second;
}

std::shared_ptr<DistWorker::CachedEvaluator> DistWorker::add_cached(
    const CircuitKey& key, std::shared_ptr<CachedEvaluator> entry) {
  std::string wanted = describe(key);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  // Two threads may prepare one circuit at once; the first to finish wins.
  const auto it =
      std::find_if(cache_.begin(), cache_.end(),
                   [&](const auto& cached) { return cached.first == wanted; });
  if (it != cache_.end()) return it->second;
  cache_.emplace_front(std::move(wanted), entry);
  // Units still running on an evicted circuit keep it alive by shared_ptr.
  if (cache_.size() > kCacheCapacity) cache_.pop_back();
  cache_entries_.store(cache_.size(), std::memory_order_relaxed);
  return entry;
}

void DistWorker::thread_main(unsigned index) {
  const std::string id = config_.name + "#" + std::to_string(index);
  std::uint32_t backoff_ms = config_.reconnect_ms;
  std::uint64_t jitter_seed = std::hash<std::string>{}(id);
  Rng jitter(splitmix64(jitter_seed));
  const ClientTimeouts timeouts{config_.connect_timeout_ms,
                                config_.io_timeout_ms};
  std::unique_ptr<Client> client;

  while (!stop_.load(std::memory_order_relaxed)) {
    try {
      if (!client) {
        client = std::make_unique<Client>(
            config_.unix_path.empty()
                ? Client::connect_tcp(config_.host, config_.port, timeouts)
                : Client::connect_unix(config_.unix_path, timeouts));
        backoff_ms = config_.reconnect_ms;
      }

      auto grant = parse_work_grant(client->request(format_lease_command(id)));
      if (!grant)
        grant = parse_work_grant(client->request(format_steal_command(id)));
      if (!grant) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.idle_poll_ms));
        continue;
      }

      const WorkUnit& unit = grant->unit;
      // Chaos sites (docs/robustness.md): a crash here abandons the leased
      // unit mid-flight — the connection-level catch below reconnects and the
      // coordinator re-issues it on disconnect/expiry.  A stall holds the
      // lease past its deadline instead, exercising expiry + steal paths.
      if (fault::point("worker.unit.crash"))
        throw std::runtime_error("injected fault: worker.unit.crash");
      (void)fault::point("worker.unit.stall");
      // A circuit this worker does not hold is fetched once per job.  The
      // fetch is a request like the lease: a lost connection goes to the
      // reconnect path below, while a refusal or a payload that does not
      // fit fails the unit.
      std::shared_ptr<CachedEvaluator> cached = find_cached(unit.circuit);
      const std::string fetched =
          cached ? std::string()
                 : client->request(format_fetch_command(id, unit.job_id));
      UnitResult result;
      // Capture the spans this thread records while running the unit
      // (dist.unit, engine spans beneath it) and ship them with the result,
      // so the coordinator's trace shows the remote execution inline.
      const std::uint64_t span_mark = obs::thread_mark();
      try {
        // The preparation's flow.synth span belongs to the unit's trace.
        const obs::TraceContext trace_context(unit.trace_id);
        if (!cached)
          cached = add_cached(
              unit.circuit,
              CachedEvaluator::prepare(unit.circuit,
                                       parse_circuit_payload(fetched)));
        ClientChannel channel(*client, id, unit.job_id, grant->incumbent);
        result = run_work_unit(*cached->evaluator, unit,
                               unit.shared_bounds ? &channel : nullptr);
      } catch (const std::exception& error) {
        result.job_id = unit.job_id;
        result.unit_id = unit.unit_id;
        result.ok = false;
        result.error = error.what();
      }
      if (unit.trace_id != 0)
        result.spans_wire =
            obs::spans_to_wire(obs::thread_events_since(span_mark));
      (void)client->request(format_complete_command(id, result));
      (result.ok ? units_completed_ : units_failed_)
          .fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
      // Connection-level failure: drop the client and reconnect with
      // backoff.  Any leased unit re-queues on the coordinator when the
      // connection death (or the lease deadline) is noticed.
      client.reset();
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      std::uint32_t waited = 0;
      while (waited < backoff_ms && !stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        waited += 10;
      }
      // Decorrelated jitter: next sleep uniform in [base, min(cap, 3*prev)],
      // from a per-thread deterministic stream, so restarted fleets spread
      // their reconnect attempts instead of hammering in lockstep.
      const std::uint32_t cap =
          std::max(config_.reconnect_ms, config_.reconnect_cap_ms);
      const std::uint32_t hi = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          cap, static_cast<std::uint64_t>(backoff_ms) * 3));
      backoff_ms = config_.reconnect_ms +
                   static_cast<std::uint32_t>(jitter.below(
                       std::uint64_t{hi} - config_.reconnect_ms + 1));
    }
  }
}

DistWorker::Telemetry DistWorker::telemetry() const {
  Telemetry out;
  out.units_completed = units_completed_.load(std::memory_order_relaxed);
  out.units_failed = units_failed_.load(std::memory_order_relaxed);
  out.reconnects = reconnects_.load(std::memory_order_relaxed);
  out.cached_circuits = cache_entries_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dominosyn::dist
