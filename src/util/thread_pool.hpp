/// \file thread_pool.hpp
/// Small persistent worker pool for the deterministic parallel searches,
/// plus the closeable task queue the serving layer's workers drain.
///
/// The searches partition work by *index* (exhaustive shard, annealing
/// restart), compute into per-index slots, and merge sequentially
/// afterwards — so results never depend on thread count or scheduling, only
/// on the index space.  parallel_for() is the one primitive that workflow
/// needs.
///
/// Long-running services (server/core.hpp) instead need push/pop task
/// handoff between producers and dedicated workers; TaskQueue provides that
/// without entangling it with the fork-join pool.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace dominosyn {

class ThreadPool {
 public:
  /// \param num_threads total workers including the calling thread;
  ///                    0 = one per hardware thread.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread (always >= 1).
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(i) for every i in [0, count), distributing indices across the
  /// pool plus the calling thread; blocks until all indices completed.  With
  /// a pool of size 1 this is a plain loop.  When a body throws in a pooled
  /// run, remaining indices are still attempted and the first exception is
  /// rethrown here.  Not reentrant: body must not call parallel_for on the
  /// same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// 0 -> hardware concurrency (at least 1); otherwise the request itself,
  /// capped at 1024 workers (results never depend on the count, so the cap
  /// only bounds resource use against nonsense requests).
  [[nodiscard]] static unsigned resolve_threads(unsigned requested) noexcept;

 private:
  void worker_loop();
  void run_shard();

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t generation_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_workers_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Closeable multi-producer / multi-consumer queue of deferred tasks — the
/// handoff primitive between request producers and dedicated service workers.
/// Unbounded by itself; admission bounding is the producer's policy (the
/// serving core counts queued work across its per-key lanes, which this
/// queue cannot see).
class TaskQueue {
 public:
  using Task = std::function<void()>;

  /// Enqueues a task; returns false (dropping the task) once closed.
  bool push(Task task);

  /// Blocks for the next task; std::nullopt once the queue is closed *and*
  /// drained — the worker-loop termination signal.
  [[nodiscard]] std::optional<Task> pop();

  /// Rejects future pushes and wakes all poppers.  Already-queued tasks are
  /// still handed out (drain-then-stop); call drain() first to discard them.
  void close();

  /// Discards queued tasks without running them; returns how many.
  std::size_t drain();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool closed() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::deque<Task> tasks_;
  bool closed_ = false;
};

}  // namespace dominosyn
