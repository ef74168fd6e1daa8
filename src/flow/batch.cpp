#include "flow/batch.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "server/core.hpp"

namespace dominosyn {

/// Per-key serialization state.  The slot mutex is the single-flight lock: it
/// is held for the whole lifetime of a Lease, serializing session use and
/// rebuild decisions.  The session/fingerprint *pointers* are additionally
/// guarded by the cache mutex so peek() can read them without taking the
/// (potentially long-held) slot lock.  Leases keep their slot alive via
/// shared_ptr, so eviction never invalidates a held lease.
struct SessionCache::Lease::Slot {
  std::mutex mutex;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<FlowSession> session;
};

void SessionCache::Lease::release() {
  session_.reset();
  if (lock_.owns_lock()) lock_.unlock();
  lock_ = std::unique_lock<std::mutex>();
  slot_.reset();
  hit_ = false;
}

SessionCache::SessionCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SessionCache::evict_over_capacity(const Lease::Slot* keep) {
  // Walk victims from the LRU end, skipping pinned entries (a lease holds a
  // second reference to the slot) and the entry being handed out.
  auto it = lru_.end();
  while (lru_.size() > capacity_ && it != lru_.begin()) {
    --it;
    if (it->slot.get() == keep || it->slot.use_count() > 1) continue;
    index_.erase(it->key);
    it = lru_.erase(it);
    ++evictions_;
  }
}

SessionCache::Lease SessionCache::lease(const std::string& key,
                                        const Network& net,
                                        const FlowOptions& options) {
  const std::uint64_t fingerprint = network_fingerprint(net);

  Lease lease;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = index_.find(key);
    if (found != index_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second);
    } else {
      lru_.push_front(Entry{key, std::make_shared<Lease::Slot>()});
      index_[key] = lru_.begin();
    }
    lease.slot_ = lru_.front().slot;
    evict_over_capacity(lease.slot_.get());
  }

  // Blocks while another lease on this key is held — the single-flight gate.
  lease.lock_ = std::unique_lock<std::mutex>(lease.slot_->mutex);

  // Only the lock holder mutates slot state, so reading it here needs no
  // cache mutex; installing a new session does (peek() reads concurrently).
  Lease::Slot& slot = *lease.slot_;
  if (slot.session != nullptr && slot.fingerprint == fingerprint) {
    slot.session->set_options(options);
    lease.session_ = slot.session;
    lease.hit_ = true;
    const std::lock_guard<std::mutex> lock(mutex_);
    ++hits_;
    return lease;
  }

  const bool replacing = slot.session != nullptr;
  auto session = std::make_shared<FlowSession>(net, options);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    slot.session = session;
    slot.fingerprint = fingerprint;
    if (replacing)
      ++invalidations_;  // same key, different circuit behind it
    else
      ++misses_;
  }
  lease.session_ = std::move(session);
  return lease;
}

std::shared_ptr<FlowSession> SessionCache::acquire(const std::string& key,
                                                   const Network& net,
                                                   const FlowOptions& options) {
  Lease held = lease(key, net, options);
  std::shared_ptr<FlowSession> session = held.session_ptr();
  held.release();
  return session;
}

std::shared_ptr<FlowSession> SessionCache::peek(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = index_.find(key);
  return found == index_.end() ? nullptr : found->second->slot->session;
}

std::size_t SessionCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void SessionCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

std::size_t SessionCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SessionCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t SessionCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t SessionCache::invalidations() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return invalidations_;
}

std::vector<FlowReport> run_flow_batch(std::span<const FlowJob> jobs,
                                       const BatchOptions& options) {
  std::vector<FlowReport> reports(jobs.size());
  if (jobs.empty()) return reports;
  for (const FlowJob& job : jobs)
    if (job.network == nullptr)
      throw std::invalid_argument("run_flow_batch: job has a null network");

  // The batch is just an in-process client of the serving core: one
  // admission/scheduling path shared with the dominod daemon.  The queue is
  // sized to the batch so admission never rejects, and jobs carry no
  // deadline.  The private cache is sized to at least the batch's distinct
  // circuits, so one batch never loses the staged-prefix amortization to
  // LRU churn mid-sweep (an external cache's capacity is the caller's
  // hot-set policy and is respected as-is).
  std::size_t distinct_keys = 0;
  {
    std::unordered_map<std::string_view, bool> seen;
    for (const FlowJob& job : jobs) {
      const std::string& key =
          job.circuit.empty() ? job.network->name() : job.circuit;
      if (seen.try_emplace(key, true).second) ++distinct_keys;
    }
  }
  ServerConfig config;
  config.num_workers = options.num_threads;
  config.queue_capacity = jobs.size();
  config.cache = options.cache;
  config.cache_capacity = std::max(options.cache_capacity, distinct_keys);
  ServerCore core(config);

  std::vector<std::future<ServerResponse>> futures;
  futures.reserve(jobs.size());
  for (const FlowJob& job : jobs) {
    ServerRequest request;
    request.circuit = job.circuit;
    // Borrowed, per the FlowJob contract — aliasing share with no owner.
    request.network = std::shared_ptr<const Network>(std::shared_ptr<void>(),
                                                     job.network);
    request.options = job.options;
    futures.push_back(core.submit(std::move(request)));
  }

  std::exception_ptr first_error;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ServerResponse response = futures[i].get();
    if (response.status == ServerStatus::kOk) {
      reports[i] = std::move(response.report);
    } else if (first_error == nullptr) {
      first_error = response.error != nullptr
                        ? response.error
                        : std::make_exception_ptr(std::runtime_error(
                              "run_flow_batch: job rejected: " +
                              std::string(to_string(response.status))));
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return reports;
}

}  // namespace dominosyn
