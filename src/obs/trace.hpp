/// \file trace.hpp
/// Span tracing across the flow / server / distributed fabric
/// (docs/observability.md).
///
/// Model: a *trace id* is minted per server request (`mint_trace_id` at
/// `ServerCore::submit`), carried on the executing thread by a `TraceContext`
/// RAII guard, and propagated to remote workers as an optional `trace_id` key
/// on the work-unit wire verbs.  A `TraceSpan` is an RAII scope that, on
/// destruction, records one completed `TraceEvent` (name, category, the
/// thread's current trace id, wall-clock start, duration) into a per-thread
/// ring buffer.  Worker processes capture the events a unit produced
/// (`thread_mark` / `thread_events_since`) and ship them back on
/// `complete_work`; the coordinator ingests them with `record_remote`, so one
/// distributed search renders as a single cross-process timeline.
///
/// Cost model: when tracing is runtime-disabled, a span is one relaxed atomic
/// load.  When enabled, it is two `system_clock` reads plus a push under the
/// ring's (uncontended, per-thread) mutex — timestamps are wall-clock
/// microseconds so spans from different processes align on one timeline.
/// Rings are bounded (`kRingCapacity` events per thread, oldest overwritten),
/// so tracing never allocates on the hot path and memory is O(threads).
///
/// `DOMINOSYN_NO_TRACING` compiles the whole span layer down to no-ops (zero
/// instructions in the hot loops — the overhead bench asserts it); the wire
/// span codec stays compiled so mixed fleets still parse each other.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dominosyn::obs {

/// Which layer a span belongs to; the nightly fabric soak asserts non-zero
/// span counts per category.
enum class SpanCat : std::uint8_t {
  kServer = 0,  ///< request admission→response (server.request)
  kFlow = 1,    ///< FlowSession stage builds (flow.synth, flow.assign, ...)
  kSearch = 2,  ///< §4.1 commits, B&B subtrees (search.commit, ...)
  kDist = 3,    ///< fabric lease/unit/merge (dist.lease, dist.unit, ...)
};
inline constexpr std::size_t kNumSpanCats = 4;

[[nodiscard]] std::string_view span_cat_name(SpanCat cat) noexcept;

/// One completed span.  POD, fixed-size, wire- and ring-friendly.
struct TraceEvent {
  char name[32] = {};        ///< NUL-terminated span name
  std::uint64_t trace_id = 0;
  std::uint64_t start_us = 0;  ///< wall clock (system_clock), microseconds
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;     ///< synthetic per-thread id (per process)
  std::uint8_t cat = 0;      ///< SpanCat
};

using SpanCounts = std::array<std::uint64_t, kNumSpanCats>;

/// Compact single-token codec for shipping spans on the line protocol
/// (`spans=` on complete_work): `name,cat,trace,start,dur,tid;...` — span
/// names are sanitized to exclude the separators, no percent-encoding
/// needed.  Always compiled, even under DOMINOSYN_NO_TRACING, so a traced
/// worker and an untraced coordinator still interoperate.
[[nodiscard]] std::string spans_to_wire(const std::vector<TraceEvent>& events);
[[nodiscard]] std::vector<TraceEvent> spans_from_wire(std::string_view wire);

#ifndef DOMINOSYN_NO_TRACING

inline constexpr bool kTracingCompiledOut = false;

/// Runtime kill switch, default on.  Disabled spans cost one relaxed load.
void set_tracing_enabled(bool enabled) noexcept;
[[nodiscard]] bool tracing_enabled() noexcept;

/// Process-global monotonic trace-id mint (starts at 1; 0 = "no trace").
[[nodiscard]] std::uint64_t mint_trace_id() noexcept;

/// The executing thread's current trace id (0 outside any TraceContext).
[[nodiscard]] std::uint64_t current_trace_id() noexcept;

/// RAII: sets the thread's trace id for a scope, restoring the previous one
/// on exit (nesting-safe).
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id) noexcept;
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  std::uint64_t previous_;
};

/// RAII span: records one TraceEvent on destruction when tracing is enabled.
/// `name` must outlive the span (string literals in practice) and is
/// truncated to 31 characters.
class TraceSpan {
 public:
  TraceSpan(const char* name, SpanCat cat) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_us_;
  SpanCat cat_;
  bool active_;
};

/// Marks the calling thread's ring position; thread_events_since(mark)
/// returns the events this thread recorded after the mark (oldest may be
/// lost if more than kRingCapacity spans landed in between).  Worker threads
/// use the pair to capture one unit's spans for shipping.
[[nodiscard]] std::uint64_t thread_mark() noexcept;
[[nodiscard]] std::vector<TraceEvent> thread_events_since(std::uint64_t mark);

/// Ingests spans recorded by another process (`process` labels the timeline,
/// e.g. the worker's wire id).  Bounded; oldest remote events are dropped
/// first.
void record_remote(const std::string& process,
                   const std::vector<TraceEvent>& events);

/// Everything currently buffered (all thread rings + remote events) as a
/// Chrome trace_event JSON document (`{"traceEvents":[...]}`), newest
/// events kept when the document would exceed ~900 KiB — the protocol ships
/// it as one line under the 1 MiB cap.  Loadable in perfetto / chrome://tracing.
[[nodiscard]] std::string chrome_trace_json();

/// Cumulative completed-span counts per category (local + ingested remote).
[[nodiscard]] SpanCounts span_counts() noexcept;
/// Total spans ever recorded (sum of span_counts()).
[[nodiscard]] std::uint64_t total_spans() noexcept;

/// Drops all buffered events (rings + remote); counters keep their values.
/// Test / bench isolation only.
void clear_events();

#else  // DOMINOSYN_NO_TRACING

inline constexpr bool kTracingCompiledOut = true;

inline void set_tracing_enabled(bool) noexcept {}
[[nodiscard]] inline bool tracing_enabled() noexcept { return false; }
[[nodiscard]] inline std::uint64_t mint_trace_id() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t current_trace_id() noexcept { return 0; }

class TraceContext {
 public:
  explicit TraceContext(std::uint64_t) noexcept {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;
};

class TraceSpan {
 public:
  TraceSpan(const char*, SpanCat) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

[[nodiscard]] inline std::uint64_t thread_mark() noexcept { return 0; }
[[nodiscard]] inline std::vector<TraceEvent> thread_events_since(
    std::uint64_t) {
  return {};
}
inline void record_remote(const std::string&,
                          const std::vector<TraceEvent>&) {}
[[nodiscard]] inline std::string chrome_trace_json() {
  return "{\"traceEvents\":[]}";
}
[[nodiscard]] inline SpanCounts span_counts() noexcept { return {}; }
[[nodiscard]] inline std::uint64_t total_spans() noexcept { return 0; }
inline void clear_events() {}

#endif  // DOMINOSYN_NO_TRACING

}  // namespace dominosyn::obs
