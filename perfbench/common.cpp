#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "server/protocol.hpp"

namespace perfbench {

namespace {

thread_local long current_span = -1;

}  // namespace

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

long SpanRecorder::open(std::string name, std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = current_span;
  span.start = seconds_between(origin_, Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  // A span without its own request id inherits its parent's.
  span.request = request != 0 || span.parent < 0
                     ? request
                     : spans_[static_cast<std::size_t>(span.parent)].request;
  spans_.push_back(std::move(span));
  current_span = static_cast<long>(spans_.size()) - 1;
  return current_span;
}

void SpanRecorder::close(long index) {
  const double end = seconds_between(origin_, Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = end;
  current_span = span.parent;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end - spans_[i].start;
    NameTotals& totals = out[spans_[i].name];
    ++totals.count;
    totals.total_s += duration;
    totals.self_s += duration - child_time[i];
  }
  return out;
}

double SpanRecorder::total(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.total_s;
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanRecorder::write(const std::string& path) const {
  const auto by_name = totals();
  std::string out = "{\"spans\":[";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"id\":" + std::to_string(i) + ",\"name\":";
      dominosyn::protocol::append_json_string(out, span.name);
      out += ",\"start\":" + std::to_string(span.start) +
             ",\"end\":" + std::to_string(span.end) +
             ",\"parent\":" + std::to_string(span.parent) +
             ",\"request\":" + std::to_string(span.request) + "}";
    }
  }
  out += "],\n\"self_time\":{";
  bool first = true;
  for (const auto& [name, totals] : by_name) {
    if (!first) out += ",\n";
    first = false;
    dominosyn::protocol::append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(totals.count) +
           ",\"total_s\":" + std::to_string(totals.total_s) +
           ",\"self_s\":" + std::to_string(totals.self_s) + "}";
  }
  out += "}}\n";
  std::ofstream file(path);
  file << out;
  if (!file) throw std::runtime_error("cannot write span file " + path);
}

std::string number(double value) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

void Result::wrong(const std::string& what) {
  correct = false;
  notes.push_back("WRONG: " + what);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Daemon::Daemon(dominosyn::ServerConfig config)
    : core_(std::move(config)), server_(core_, dominosyn::TransportConfig{}) {}

dominosyn::Client Daemon::connect() const {
  return dominosyn::Client::connect_tcp("127.0.0.1", server_.port());
}

Reply submit(dominosyn::Client& client, const std::string& command,
             const std::string& body, std::uint64_t request_id) {
  const ScopedSpan span("client.submit", request_id);
  Reply reply;
  const auto start = Clock::now();
  try {
    reply.summary = client.submit(command, body);
  } catch (const std::exception& e) {
    reply.summary.ok = false;
    reply.summary.status = "transport_error";
    reply.summary.error = e.what();
  }
  reply.round_trip_s = seconds_between(start, Clock::now());
  reply.wire_s = reply.round_trip_s - reply.summary.queue_seconds -
                 reply.summary.service_seconds;
  return reply;
}

std::string report_body(const std::string& raw) {
  const std::size_t begin = raw.find("\"report\":{");
  const std::size_t seconds = raw.find(",\"seconds\":", begin);
  if (begin == std::string::npos || seconds == std::string::npos) return {};
  return raw.substr(begin, seconds - begin);
}

std::string report_body(const dominosyn::FlowReport& report) {
  dominosyn::ServerResponse response;
  response.report = report;
  return report_body(dominosyn::protocol::format_response(response));
}

void record_serving_layers(const std::vector<const Reply*>& replies,
                           double passes, Result& result) {
  using dominosyn::protocol::find_number;
  std::vector<double> queue_ms, hit_ms, rebuild_ms, wire_ms;
  double hits = 0, map_rebuilds = 0, measure_rebuilds = 0, wire_s = 0;
  for (const Reply* reply : replies) {
    if (!reply->summary.ok) continue;
    const std::string& raw = reply->summary.raw;
    const double maps = find_number(raw, "map").value_or(0.0);
    const double measures = find_number(raw, "measure").value_or(0.0);
    queue_ms.push_back(1e3 * reply->summary.queue_seconds);
    wire_ms.push_back(1e3 * reply->wire_s);
    wire_s += reply->wire_s;
    if (reply->summary.cache_hit) ++hits;
    map_rebuilds += maps;
    measure_rebuilds += measures;
    (maps + measures > 0 ? rebuild_ms : hit_ms)
        .push_back(1e3 * reply->summary.service_seconds);
  }
  const double n = std::max<double>(1.0, static_cast<double>(queue_ms.size()));
  result.set("server.queue_ms.p50", quantile(queue_ms, 0.50), "ms");
  result.set("server.queue_ms.p99", quantile(queue_ms, 0.99), "ms");
  result.set("server.service_hit_ms.p50", quantile(hit_ms, 0.50), "ms");
  result.set("server.service_rebuild_ms.p50", quantile(rebuild_ms, 0.50), "ms");
  result.set("session.hit_ratio", hits / n, "ratio");
  result.set("session.map_rebuilds", map_rebuilds / passes, "count");
  result.set("session.measure_rebuilds", measure_rebuilds / passes, "count");
  result.set("wire.overhead_ms.p50", quantile(wire_ms, 0.50), "ms");
  result.set("wire.overhead_s", wire_s / passes, "s");
  result.note("serving layers over " + std::to_string(queue_ms.size()) +
              " replies: " + std::to_string(hit_ms.size()) + " without and " +
              std::to_string(rebuild_ms.size()) + " with a map/measure rebuild");
}

void record_flow_layers(Result& result) {
  for (const char* stage : {"flow.synth", "flow.probs", "flow.evaluator",
                            "flow.assign_ma", "flow.assign_mp", "flow.map",
                            "flow.measure", "blif.parse"})
    result.set(std::string(stage) + "_s", spans().total(stage), "s");
}

double replay_shared_stages(dominosyn::FlowSession& session) {
  {
    const ScopedSpan span("flow.synth");
    (void)session.synthesized();
  }
  const auto start = Clock::now();
  {
    const ScopedSpan span("flow.probs");
    (void)session.probabilities();
  }
  const double probs_s = seconds_between(start, Clock::now());
  {
    const ScopedSpan span("flow.evaluator");
    (void)session.evaluator();
  }
  return probs_s;
}

bool answered_ok(const Reply& reply) {
  return reply.summary.ok &&
         dominosyn::protocol::find_bool(reply.summary.raw, "equivalence_ok")
             .value_or(false);
}

}  // namespace perfbench
