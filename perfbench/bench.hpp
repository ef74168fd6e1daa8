/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark (README.md): run arguments, the
/// span recorder behind the traced run, sample statistics, the in-process
/// serving stack, and the result every workload fills in.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "server/client.hpp"
#include "server/core.hpp"
#include "server/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string span_file;
};

// -- spans ---------------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's origin
  double end = 0.0;
  long parent = -1;    ///< index of the enclosing span on the same thread
  std::uint64_t request = 0;
};

/// In-memory span store.  Disabled, a ScopedSpan costs one branch; enabled,
/// two clock reads and a push under a mutex.  Parents are tracked per thread,
/// so concurrent generator connections nest correctly.
class SpanRecorder {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] long open(std::string name, std::uint64_t request);
  void close(long index);

  /// Total duration and self time (duration minus the part covered by child
  /// spans) per span name.
  struct NameTotals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Writes every span plus the per-name totals as one JSON document.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanRecorder& spans();

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::uint64_t request = 0)
      : index_(spans().enabled() ? spans().open(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) spans().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  long index_;
};

// -- statistics ------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Shortest text that reads back as the same double.
[[nodiscard]] std::string number(double value);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// -- result ----------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  `metrics` holds the numbers of the JSON line (the
/// end-to-end set untraced, the per-layer set traced); `notes` are the
/// human-readable lines printed before it.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a wrong or divergent answer: fails the run.
  void wrong(const std::string& what);
};

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

// -- serving stack ---------------------------------------------------------------

/// An in-process `ServerCore` behind a loopback `SocketServer`: the same
/// objects `dominod` runs, reached over the real wire protocol.  Members are
/// destroyed in reverse order, so the transport stops before the core drains.
class Daemon {
 public:
  explicit Daemon(dominosyn::ServerConfig config);

  [[nodiscard]] dominosyn::Client connect() const;
  [[nodiscard]] dominosyn::ServerCore& core() { return core_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  dominosyn::ServerCore core_;
  dominosyn::SocketServer server_;
};

/// One submit as the client saw it.
struct Reply {
  dominosyn::Client::SubmitSummary summary;
  double round_trip_s = 0.0;
  /// round trip minus the server's queue and service time: codec, socket
  /// and connection-thread parsing (BLIF or corpus generation).
  double wire_s = 0.0;
};

/// Sends one submit and times it.  Transport exceptions become a failed
/// summary (ok = false) rather than escaping.
[[nodiscard]] Reply submit(dominosyn::Client& client, const std::string& command,
                           const std::string& body = "",
                           std::uint64_t request_id = 0);

/// The "report":{...} object of a submit response with its timing field
/// ("seconds") removed: what must be identical between two answers to the
/// same question.
[[nodiscard]] std::string report_body(const std::string& raw);
/// report_body() of an in-process FlowReport, formatted by the wire codec.
[[nodiscard]] std::string report_body(const dominosyn::FlowReport& report);

/// True when the reply is `ok` and its report passed the equivalence check.
[[nodiscard]] bool answered_ok(const Reply& reply);

/// Per-layer serving numbers of a set of replies (traced run): queue and
/// service time from the response telemetry, session-cache hits and the
/// map/measure rebuilds requests triggered, and the wire overhead.  Counts
/// and wire totals are divided by `passes` (replies span that many passes
/// over the workload's request set).
void record_serving_layers(const std::vector<const Reply*>& replies,
                           double passes, Result& result);
/// Per-layer flow numbers from the recorded spans (traced run): total time
/// in each FlowSession stage entry point and in blif::read_string.
void record_flow_layers(Result& result);

/// Builds a session's shared stages — synthesis, probabilities, evaluator —
/// each under its span (traced replay).  Returns the probability stage's
/// seconds.
double replay_shared_stages(dominosyn::FlowSession& session);

/// Runs `setup` at least three times, and again while the set-ups have taken
/// less than a second in all (at most 25 times), with an untimed `teardown`
/// between, and returns the median wall time — set-up cost as a steady
/// number even where one set-up takes milliseconds.  The last set-up stays
/// in place for the measurement.
template <typename Setup, typename Teardown>
double timed_setup(Setup&& setup, Teardown&& teardown) {
  std::vector<double> times;
  double spent_s = 0.0;
  while (times.size() < 3 || (spent_s < 1.0 && times.size() < 25)) {
    if (!times.empty()) teardown();
    const auto start = Clock::now();
    setup();
    times.push_back(seconds_between(start, Clock::now()));
    spent_s += times.back();
  }
  return median(times);
}

// -- workloads -------------------------------------------------------------------

void run_paper_cold(const RunArgs& args, Result& result);
void run_serve_whatif(const RunArgs& args, Result& result);
void run_exact_fabric(const RunArgs& args, Result& result);

}  // namespace perfbench
