/// \file trace.cpp

#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>

#include "util/codec.hpp"

namespace dominosyn::obs {

std::string_view span_cat_name(SpanCat cat) noexcept {
  switch (cat) {
    case SpanCat::kServer: return "server";
    case SpanCat::kFlow: return "flow";
    case SpanCat::kSearch: return "search";
    case SpanCat::kDist: return "dist";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Wire codec — always compiled (see header).

namespace {

/// Span names are library-chosen literals, but sanitize defensively: the
/// wire token must not contain the field separators, '=', or whitespace.
bool wire_safe(char c) noexcept {
  return c != ',' && c != ';' && c != '=' && c != ' ' && c != '\t' &&
         c != '\n' && c != '\r' && c != '\0';
}

}  // namespace

std::string spans_to_wire(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 48);
  for (const TraceEvent& event : events) {
    if (!out.empty()) out += ';';
    for (const char* p = event.name; *p != '\0'; ++p)
      out += wire_safe(*p) ? *p : '_';
    out += ',';
    out += std::to_string(event.cat);
    out += ',';
    out += std::to_string(event.trace_id);
    out += ',';
    out += std::to_string(event.start_us);
    out += ',';
    out += std::to_string(event.dur_us);
    out += ',';
    out += std::to_string(event.tid);
  }
  return out;
}

std::vector<TraceEvent> spans_from_wire(std::string_view wire) {
  const auto parse = [](std::string_view text, auto& out) {
    const auto value = codec::parse_u64(text);
    out = static_cast<std::remove_reference_t<decltype(out)>>(
        value.value_or(0));
    return value && *value == out;  // decodes and fits the field
  };
  std::vector<TraceEvent> events;
  for (const std::string_view span : codec::split_tokens(wire, ";")) {
    const std::vector<std::string_view> fields =
        codec::split_positional(span, ',');
    TraceEvent event;
    std::uint64_t cat = 0;
    // A malformed span is dropped; it never fails the verb.
    if (fields.size() != 6 || !parse(fields[1], cat) || cat >= kNumSpanCats ||
        !parse(fields[2], event.trace_id) ||
        !parse(fields[3], event.start_us) ||
        !parse(fields[4], event.dur_us) || !parse(fields[5], event.tid))
      continue;
    event.cat = static_cast<std::uint8_t>(cat);
    const std::size_t len = std::min(fields[0].size(), sizeof(event.name) - 1);
    std::memcpy(event.name, fields[0].data(), len);
    events.push_back(event);
  }
  return events;
}

#ifndef DOMINOSYN_NO_TRACING

// ---------------------------------------------------------------------------
// Collector.

namespace {

constexpr std::size_t kRingCapacity = 4096;  ///< events kept per thread
constexpr std::size_t kRemoteCapacity = 1 << 16;
/// chrome_trace_json stays under the protocol's 1 MiB line cap: keep the
/// newest events whose rendered size fits in ~900 KiB.
constexpr std::size_t kDumpBudgetBytes = 900 * 1024;
constexpr std::size_t kDumpBytesPerEvent = 140;  ///< conservative estimate

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// A thread's bounded span buffer.  The owning thread pushes under the
/// per-ring mutex (uncontended except while a dump walks the rings); the
/// global registry keeps the ring alive past thread exit so late dumps still
/// see its spans.
struct ThreadRing {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::uint64_t pushed = 0;  ///< total events ever pushed
  std::array<TraceEvent, kRingCapacity> events;

  void push(const TraceEvent& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    events[pushed % kRingCapacity] = event;
    ++pushed;
  }

  /// Events with sequence number >= mark still present in the ring.
  std::vector<TraceEvent> since(std::uint64_t mark) {
    const std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t oldest =
        pushed > kRingCapacity ? pushed - kRingCapacity : 0;
    std::vector<TraceEvent> out;
    for (std::uint64_t seq = std::max(mark, oldest); seq < pushed; ++seq)
      out.push_back(events[seq % kRingCapacity]);
    return out;
  }
};

struct RemoteEvent {
  std::uint32_t pid = 0;
  TraceEvent event;
};

struct Collector {
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> next_trace_id{1};
  std::atomic<std::uint32_t> next_tid{1};
  std::array<std::atomic<std::uint64_t>, kNumSpanCats> cat_counts{};

  std::mutex rings_mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;

  std::mutex remote_mutex;
  std::deque<RemoteEvent> remote;
  std::map<std::string, std::uint32_t> remote_pids;
  std::uint32_t next_pid = 2;  ///< pid 1 = this process

  static Collector& instance() {
    static Collector collector;
    return collector;
  }
};

ThreadRing& thread_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    Collector& collector = Collector::instance();
    auto fresh = std::make_shared<ThreadRing>();
    fresh->tid = collector.next_tid.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(collector.rings_mutex);
    collector.rings.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

thread_local std::uint64_t tls_trace_id = 0;

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

void set_tracing_enabled(bool enabled) noexcept {
  Collector::instance().enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return Collector::instance().enabled.load(std::memory_order_relaxed);
}

std::uint64_t mint_trace_id() noexcept {
  return Collector::instance().next_trace_id.fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t current_trace_id() noexcept { return tls_trace_id; }

TraceContext::TraceContext(std::uint64_t trace_id) noexcept
    : previous_(tls_trace_id) {
  tls_trace_id = trace_id;
}

TraceContext::~TraceContext() { tls_trace_id = previous_; }

TraceSpan::TraceSpan(const char* name, SpanCat cat) noexcept
    : name_(name), start_us_(0), cat_(cat), active_(false) {
  if (!tracing_enabled()) return;
  active_ = true;
  start_us_ = now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t end_us = now_us();
  ThreadRing& ring = thread_ring();
  TraceEvent event;
  const std::size_t len =
      std::min(std::strlen(name_), sizeof(event.name) - 1);
  std::memcpy(event.name, name_, len);
  event.trace_id = tls_trace_id;
  event.start_us = start_us_;
  event.dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  event.tid = ring.tid;
  event.cat = static_cast<std::uint8_t>(cat_);
  ring.push(event);
  Collector::instance()
      .cat_counts[static_cast<std::size_t>(cat_)]
      .fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t thread_mark() noexcept {
  ThreadRing& ring = thread_ring();
  const std::lock_guard<std::mutex> lock(ring.mutex);
  return ring.pushed;
}

std::vector<TraceEvent> thread_events_since(std::uint64_t mark) {
  return thread_ring().since(mark);
}

void record_remote(const std::string& process,
                   const std::vector<TraceEvent>& events) {
  if (events.empty()) return;
  Collector& collector = Collector::instance();
  const std::lock_guard<std::mutex> lock(collector.remote_mutex);
  const auto [it, inserted] =
      collector.remote_pids.try_emplace(process, collector.next_pid);
  if (inserted) ++collector.next_pid;
  for (const TraceEvent& event : events) {
    if (event.cat < kNumSpanCats)
      collector.cat_counts[event.cat].fetch_add(1, std::memory_order_relaxed);
    collector.remote.push_back({it->second, event});
  }
  while (collector.remote.size() > kRemoteCapacity)
    collector.remote.pop_front();
}

std::string chrome_trace_json() {
  using codec::append_field;
  Collector& collector = Collector::instance();

  std::vector<RemoteEvent> all;
  {
    const std::lock_guard<std::mutex> lock(collector.rings_mutex);
    for (const auto& ring : collector.rings)
      for (const TraceEvent& event : ring->since(0))
        all.push_back({1, event});
  }
  std::vector<std::pair<std::uint32_t, std::string>> processes;
  processes.emplace_back(1, "dominod");
  {
    const std::lock_guard<std::mutex> lock(collector.remote_mutex);
    all.insert(all.end(), collector.remote.begin(), collector.remote.end());
    for (const auto& [name, pid] : collector.remote_pids)
      processes.emplace_back(pid, name);
  }

  std::sort(all.begin(), all.end(),
            [](const RemoteEvent& a, const RemoteEvent& b) {
              return a.event.start_us < b.event.start_us;
            });
  const std::size_t budget = kDumpBudgetBytes / kDumpBytesPerEvent;
  if (all.size() > budget)
    all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(budget));

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : processes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":";
    codec::append_json_string(out, name);
    out += "}}";
  }
  for (const RemoteEvent& entry : all) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_field(out, "name", std::string_view(entry.event.name));
    const auto cat = entry.event.cat < kNumSpanCats ? entry.event.cat : 0;
    append_field(out, "cat", span_cat_name(static_cast<SpanCat>(cat)));
    append_field(out, "ph", std::string_view("X"));
    append_field(out, "ts", entry.event.start_us);
    append_field(out, "dur", entry.event.dur_us);
    append_field(out, "pid", std::uint64_t{entry.pid});
    append_field(out, "tid", std::uint64_t{entry.event.tid});
    out += "\"args\":{";
    append_field(out, "trace_id", entry.event.trace_id, /*comma=*/false);
    out += "}}";
  }
  out += "]}";
  return out;
}

SpanCounts span_counts() noexcept {
  Collector& collector = Collector::instance();
  SpanCounts out{};
  for (std::size_t i = 0; i < kNumSpanCats; ++i)
    out[i] = collector.cat_counts[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t total_spans() noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : span_counts()) total += count;
  return total;
}

void clear_events() {
  Collector& collector = Collector::instance();
  {
    const std::lock_guard<std::mutex> lock(collector.rings_mutex);
    for (const auto& ring : collector.rings) {
      const std::lock_guard<std::mutex> ring_lock(ring->mutex);
      ring->pushed = 0;
    }
  }
  const std::lock_guard<std::mutex> lock(collector.remote_mutex);
  collector.remote.clear();
}

#endif  // DOMINOSYN_NO_TRACING

}  // namespace dominosyn::obs
