/// \file worker.hpp
/// The worker side of the distributed search fabric (`dominod --worker`): a
/// pool of threads that connect to a coordinator daemon, lease work units
/// (branch-and-bound subtrees), run them on the unchanged local engine
/// (run_bnb_subtree) and report results — stealing speculative duplicate
/// leases when the queue runs dry and reconnecting with backoff when the
/// coordinator goes away.  A grant that does not decode, such as an older
/// coordinator's annealing restart, is treated like a lost connection: the
/// thread reconnects.
///
/// A grant names its circuit by CircuitKey only.  A worker that does not
/// hold that circuit fetches the job's payload once (`fetch_circuit`): the
/// spec plus the coordinator evaluator's per-node probabilities.  It rebuilds
/// and normalizes the network in a FlowSession (the flow's own synthesis),
/// verifies the synthesized network's structural fingerprint and the
/// probabilities against it, and builds its evaluator on those
/// probabilities — no worker builds a BDD, and every unit is scored on the
/// coordinator's numbers.  A payload that does not fit fails the unit (the
/// coordinator fails the job, the submitting flow reruns the search
/// locally) rather than merging wrong numbers.  Prepared circuits are
/// cached, least recently used out past kCacheCapacity, so the per-unit cost
/// is one lease round trip; the cache lock is never held while a circuit is
/// fetched or prepared.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/workunit.hpp"

namespace dominosyn::dist {

struct WorkerConfig {
  /// Coordinator endpoint: unix_path wins when non-empty, else host:port.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string unix_path;
  /// Concurrent units (one connection + one engine each); 0 = one per
  /// hardware thread.  Units themselves run single-threaded.
  unsigned num_threads = 1;
  /// Worker name; thread k identifies as "<name>#k" on the wire.
  std::string name = "worker";
  std::uint32_t idle_poll_ms = 50;     ///< sleep between empty lease+steal rounds
  std::uint32_t reconnect_ms = 200;    ///< base reconnect backoff
  /// Reconnect backoff ceiling; sleeps follow decorrelated jitter — uniform
  /// in [reconnect_ms, min(reconnect_cap_ms, 3 * previous)] — so a fleet of
  /// workers losing the same coordinator does not reconnect in lockstep.
  std::uint32_t reconnect_cap_ms = 5'000;
  std::uint32_t connect_timeout_ms = 5'000;  ///< TCP connect deadline (0 = none)
  /// Per-send/recv deadline toward the coordinator (0 = none).  Generous by
  /// default: it only needs to catch a hung coordinator, not slow units.
  std::uint32_t io_timeout_ms = 30'000;
};

class DistWorker {
 public:
  struct Telemetry {
    std::uint64_t units_completed = 0;
    std::uint64_t units_failed = 0;  ///< ran but reported ok=false
    std::uint64_t reconnects = 0;
    std::uint64_t cached_circuits = 0;  ///< prepared circuits held now
  };

  /// Prepared circuits kept, as many as dominod's default hot-session cache.
  static constexpr std::size_t kCacheCapacity = 8;

  explicit DistWorker(WorkerConfig config);
  ~DistWorker();
  DistWorker(const DistWorker&) = delete;
  DistWorker& operator=(const DistWorker&) = delete;

  /// Spawns the worker threads.  Idempotent.
  void start();
  /// Signals the threads and joins them; in-flight units finish and report
  /// first (their leases have not expired — the coordinator keeps the
  /// results).  Idempotent.
  void stop();

  [[nodiscard]] Telemetry telemetry() const;

 private:
  struct CachedEvaluator;

  void thread_main(unsigned index);
  /// The cached circuit for `key` (now most recently used), or nullptr.
  [[nodiscard]] std::shared_ptr<CachedEvaluator> find_cached(
      const CircuitKey& key);
  /// Caches `entry` under `key` unless another thread cached that circuit
  /// first; returns the entry the cache keeps.
  [[nodiscard]] std::shared_ptr<CachedEvaluator> add_cached(
      const CircuitKey& key, std::shared_ptr<CachedEvaluator> entry);

  WorkerConfig config_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::vector<std::thread> threads_;

  std::mutex cache_mutex_;
  /// Most recently used first.
  std::list<std::pair<std::string, std::shared_ptr<CachedEvaluator>>> cache_;
  std::atomic<std::size_t> cache_entries_{0};

  std::atomic<std::uint64_t> units_completed_{0};
  std::atomic<std::uint64_t> units_failed_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace dominosyn::dist
