/// \file metrics.hpp
/// Low-overhead metrics primitives for the serving stack (docs/observability.md):
/// named counters, gauges, and fixed-bucket log2 latency histograms collected
/// in a `MetricsRegistry`.
///
/// Design constraints, in order:
///   * hot-path updates are single relaxed atomic RMWs — no locks, no
///     allocation, safe from any thread, and cheap enough for the §4.1
///     commit loop;
///   * snapshots are mergeable and deterministic: a histogram snapshot is a
///     plain bucket-count vector, worker→coordinator aggregation is
///     element-wise addition and therefore order-independent;
///   * quantiles are *exact over the bucketing*: `Histogram::quantile(q)`
///     returns the lower bound of the bucket holding the rank-⌈q·count⌉
///     sample, so the same snapshot always yields the same p50/p95/p99 and a
///     sorted-vector oracle can check it bucket-for-bucket.
///
/// The bucketing is log2: bucket 0 holds the value 0, bucket i ≥ 1 holds
/// values in [2^(i-1), 2^i).  64 buckets cover the full uint64 range (the
/// last bucket is open-ended), which for microsecond latencies spans 1 µs to
/// ~584 000 years — no configuration knob to get wrong.
///
/// Registration (`registry.counter("name", "help")`) takes a mutex and may
/// allocate; callers register once at construction and keep the returned
/// reference, which stays valid for the registry's lifetime.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dominosyn::obs {

/// Monotonic relaxed-atomic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, in-flight requests).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Monotonic sum of doubles (CAS loop — fetch_add on atomic<double> needs
/// hardware support we don't assume).  Used for report metrics that are
/// ratios rather than counts (bound tightness).
class DoubleSum {
 public:
  void add(double d) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + d,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// One histogram's mergeable state: plain integers, element-wise addable.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;  ///< total samples
  std::uint64_t sum = 0;    ///< sum of recorded values
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Element-wise addition — associative and commutative, so aggregating
  /// worker snapshots into a coordinator snapshot is order-independent.
  HistogramSnapshot& merge(const HistogramSnapshot& other) noexcept;

  /// Lower bound of the bucket holding the rank-⌈q·count⌉ sample (rank
  /// clamped to [1, count]); 0 when the histogram is empty.  q in [0, 1].
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;
};

/// Bucket index for a value: 0 for 0, else bit_width (log2 + 1), clamped so
/// the last bucket is open-ended.
[[nodiscard]] constexpr std::size_t histogram_bucket_of(
    std::uint64_t value) noexcept {
  const std::size_t raw = static_cast<std::size_t>(std::bit_width(value));
  return raw < HistogramSnapshot::kBuckets ? raw
                                           : HistogramSnapshot::kBuckets - 1;
}

/// Smallest value that lands in bucket i (0 for bucket 0).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_lower(
    std::size_t i) noexcept {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/// Fixed-bucket log2 latency histogram.  record() is two relaxed RMWs.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    buckets_[histogram_bucket_of(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Coherent-enough snapshot: buckets are read individually (relaxed), so a
  /// concurrent record() may or may not be included — but every bucket value
  /// is a real count and count == Σ buckets by construction of the read.
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// A consistent-by-construction copy of every registered metric, renderable
/// as Prometheus text or protocol JSON without holding any lock.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    std::string help;
    enum class Kind : std::uint8_t { kCounter, kGauge, kDoubleSum, kHistogram };
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    double double_sum = 0.0;
    HistogramSnapshot histogram;
  };
  std::vector<Entry> entries;  ///< sorted by name (registry iteration order)
};

/// Named metric collection.  Registration is mutex-guarded and idempotent by
/// name (same name + kind returns the same instrument; a kind clash throws
/// std::logic_error).  Instrument addresses are stable for the registry's
/// lifetime — hot paths hold references, never look up by name.  A counter,
/// gauge or sum name may end in a Prometheus label set, one instrument per
/// series: `counter("dominosyn_prob_builds_total{method=\"exact\"}")`.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  // out-of-line: Slot is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, std::string help = "");
  Gauge& gauge(const std::string& name, std::string help = "");
  DoubleSum& double_sum(const std::string& name, std::string help = "");
  Histogram& histogram(const std::string& name, std::string help = "");

  /// Snapshot of all registered metrics, in name order.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus text exposition (version 0.0.4) of snapshot():
  /// HELP/TYPE preambles, cumulative `le` buckets with _sum/_count for
  /// histograms.  Metric names are sanitized to [a-zA-Z0-9_:]; a label set
  /// is kept verbatim, and a family's series share one preamble.
  [[nodiscard]] std::string prometheus() const;

 private:
  struct Slot;
  Slot& slot(const std::string& name, MetricsSnapshot::Entry::Kind kind,
             std::string help);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
};

/// Renders an already-taken snapshot as Prometheus text (the registry's
/// prometheus() is snapshot() + this; exposed so remote-merged snapshots can
/// render the same way).
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace dominosyn::obs
