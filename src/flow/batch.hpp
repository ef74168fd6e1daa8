/// \file batch.hpp
/// Batched flow sweeps over shared, cached FlowSessions.
///
/// A paper-style comparison runs many (circuit, mode) combinations whose
/// expensive prefix — synthesis, sequential partitioning, BDD probability
/// extraction, the EvalContext build — is identical per circuit.
/// `run_flow_batch` submits such jobs to an in-process `ServerCore`
/// (server/core.hpp), which drives one cached `FlowSession` per circuit:
/// same-circuit jobs share the session's stage artifacts while different
/// circuits proceed in parallel.  Batch and the `dominod` daemon therefore
/// share a single admission/scheduling path.
///
/// Determinism: same-key jobs run in submission order (per-key FIFO
/// single-flight) and per-job computation is deterministic and independent
/// across circuits, so the returned reports are bit-identical for every
/// `BatchOptions::num_threads` (including 0 = hardware).
///
/// The `SessionCache` is the serving working set: a bounded LRU of hot
/// sessions keyed by circuit name.  A server (or a sequence of batches) that
/// keeps one cache alive re-serves repeat circuits from their cached stage
/// artifacts; sessions are re-validated against a structural fingerprint of
/// the submitted network and the per-job options, so a changed circuit or
/// changed upstream options rebuilds exactly the stale stages.
///
/// Concurrency: the cache serializes same-key work itself.  `lease()` hands
/// out the session together with a held per-key lock, so concurrent
/// lease calls for one key block each other while distinct keys proceed in
/// parallel — callers never need to coordinate same-key jobs themselves.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/session.hpp"

namespace dominosyn {

/// Order-independent-of-scheduling unit of batch work: one circuit, one
/// option set (including the mode).
struct FlowJob {
  /// Session-cache key.  Empty = network->name(); jobs sharing a key share a
  /// session, so all modes of one circuit should use one key.
  std::string circuit;
  /// Borrowed; must outlive the batch call.
  const Network* network = nullptr;
  FlowOptions options;
};

/// Bounded LRU of hot FlowSessions keyed by circuit name — the serving
/// frontend's working set (ServerCore owns one; batches may share one across
/// calls).
///
/// `lease()` is the concurrency-safe entry point: it returns the session for
/// a key together with a held per-key lock, creating / replacing /
/// re-validating the session as needed (a changed network fingerprint
/// replaces it; changed options go through FlowSession::set_options, which
/// invalidates only stages whose inputs changed).  Same-key leases serialize;
/// distinct keys never contend beyond the brief index lookup.  While any
/// lease on a key is held, the key's entry is pinned: it cannot be evicted,
/// so every concurrent lease lands on the same slot (the cache may
/// transiently exceed its capacity while over-subscribed with pinned keys,
/// and shrinks back on later leases).
class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity = 8);

  /// A held per-key lock plus the validated session behind it.  Movable;
  /// releases the key on destruction.  Holding a lease guarantees exclusive
  /// use of the session and pins the cache entry.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&&) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] explicit operator bool() const noexcept { return session_ != nullptr; }
    [[nodiscard]] FlowSession& session() const { return *session_; }
    [[nodiscard]] const std::shared_ptr<FlowSession>& session_ptr() const noexcept {
      return session_;
    }
    /// True when this lease was served from a valid cached session (no
    /// session construction; stale stages may still rebuild lazily).
    [[nodiscard]] bool cache_hit() const noexcept { return hit_; }

    void release();

   private:
    friend class SessionCache;
    struct Slot;
    std::shared_ptr<Slot> slot_;
    std::unique_lock<std::mutex> lock_;
    std::shared_ptr<FlowSession> session_;
    bool hit_ = false;
  };

  /// Leases the session for `key`, blocking while another lease on the same
  /// key is held, and marking the entry most-recently-used.
  [[nodiscard]] Lease lease(const std::string& key, const Network& net,
                            const FlowOptions& options);

  /// Single-threaded convenience: lease() with the lock released before
  /// returning.  The returned session is NOT protected against concurrent
  /// use — multi-threaded callers must hold a Lease instead.
  [[nodiscard]] std::shared_ptr<FlowSession> acquire(const std::string& key,
                                                     const Network& net,
                                                     const FlowOptions& options);

  /// The cached session for `key` without creating or touching LRU order;
  /// nullptr when absent.  For inspection of a quiesced cache — the result
  /// bypasses the per-key lock.
  [[nodiscard]] std::shared_ptr<FlowSession> peek(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void clear();

  /// lease() calls served from a valid cached session.
  [[nodiscard]] std::size_t hits() const;
  /// lease() calls that created a session for an unseen key.
  [[nodiscard]] std::size_t misses() const;
  /// Sessions dropped because the LRU exceeded its capacity.
  [[nodiscard]] std::size_t evictions() const;
  /// Sessions rebuilt because the submitted network changed under their key.
  [[nodiscard]] std::size_t invalidations() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<Lease::Slot> slot;
  };

  void evict_over_capacity(const Lease::Slot* keep);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t invalidations_ = 0;
};

struct BatchOptions {
  /// Workers of the in-process server driving the batch (whole jobs are the
  /// work unit; same-circuit jobs serialize on their shared session);
  /// 0 = one per hardware thread.  Reports are identical for every value.
  /// Per-job search parallelism is FlowOptions::num_threads, independent of
  /// this.
  unsigned num_threads = 1;
  /// Long-lived cache to serve/retain hot sessions across batches (the
  /// service frontend).  nullptr = a private per-call cache.
  SessionCache* cache = nullptr;
  /// Capacity floor of the private per-call cache when `cache` is nullptr;
  /// the batch raises it to its distinct-circuit count so a single sweep
  /// never rebuilds a staged prefix to LRU churn.
  std::size_t cache_capacity = 8;
};

/// Runs every job and returns its FlowReport at the job's index.  Jobs with a
/// null network throw std::invalid_argument before any work starts.  A job
/// that throws mid-batch (e.g. ExhaustiveLimitError) lets remaining jobs
/// finish and rethrows the lowest-index job's exception.
[[nodiscard]] std::vector<FlowReport> run_flow_batch(
    std::span<const FlowJob> jobs, const BatchOptions& options = {});

}  // namespace dominosyn
