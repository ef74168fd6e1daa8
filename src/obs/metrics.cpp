/// \file metrics.cpp

#include "obs/metrics.hpp"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dominosyn::obs {

HistogramSnapshot& HistogramSnapshot::merge(
    const HistogramSnapshot& other) noexcept {
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  return *this;
}

std::uint64_t HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample, 1-based: ⌈q·count⌉ clamped to [1, count].
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return histogram_bucket_lower(i);
  }
  return histogram_bucket_lower(kBuckets - 1);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    out.count += out.buckets[i];
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

struct MetricsRegistry::Slot {
  MetricsSnapshot::Entry::Kind kind;
  std::string help;
  Counter counter;
  Gauge gauge;
  DoubleSum double_sum;
  Histogram histogram;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Slot& MetricsRegistry::slot(const std::string& name,
                                             MetricsSnapshot::Entry::Kind kind,
                                             std::string help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    auto fresh = std::make_unique<Slot>();
    fresh->kind = kind;
    fresh->help = std::move(help);
    it = slots_.emplace(name, std::move(fresh)).first;
  } else if (it->second->kind != kind) {
    throw std::logic_error("metric '" + name +
                           "' re-registered with a different kind");
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, std::string help) {
  return slot(name, MetricsSnapshot::Entry::Kind::kCounter, std::move(help))
      .counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, std::string help) {
  return slot(name, MetricsSnapshot::Entry::Kind::kGauge, std::move(help))
      .gauge;
}

DoubleSum& MetricsRegistry::double_sum(const std::string& name,
                                       std::string help) {
  return slot(name, MetricsSnapshot::Entry::Kind::kDoubleSum, std::move(help))
      .double_sum;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::string help) {
  return slot(name, MetricsSnapshot::Entry::Kind::kHistogram, std::move(help))
      .histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.entries.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    MetricsSnapshot::Entry entry;
    entry.name = name;
    entry.help = slot->help;
    entry.kind = slot->kind;
    switch (slot->kind) {
      case MetricsSnapshot::Entry::Kind::kCounter:
        entry.counter = slot->counter.value();
        break;
      case MetricsSnapshot::Entry::Kind::kGauge:
        entry.gauge = slot->gauge.value();
        break;
      case MetricsSnapshot::Entry::Kind::kDoubleSum:
        entry.double_sum = slot->double_sum.value();
        break;
      case MetricsSnapshot::Entry::Kind::kHistogram:
        entry.histogram = slot->histogram.snapshot();
        break;
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

std::string MetricsRegistry::prometheus() const {
  return to_prometheus(snapshot());
}

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0)
    out.insert(out.begin(), '_');
  return out;
}

void append_help_type(std::string& out, const std::string& name,
                      const std::string& help, const char* type) {
  if (!help.empty()) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += '\n';
  }
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

std::string render_double(double v) {
  std::ostringstream stream;
  stream.precision(17);
  stream << v;
  return stream.str();
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string previous_family;
  for (const auto& entry : snapshot.entries) {
    // A registered name is a metric family, optionally followed by a label
    // set (`name{method="exact"}`) that is kept verbatim.  Labelled series of
    // one family sort next to each other; the family's HELP/TYPE preamble
    // precedes only the first.
    const std::size_t brace = entry.name.find('{');
    const std::string name = sanitize(entry.name.substr(0, brace));
    const std::string series =
        brace == std::string::npos ? name : name + entry.name.substr(brace);
    const bool first_of_family = name != previous_family;
    previous_family = name;
    switch (entry.kind) {
      case MetricsSnapshot::Entry::Kind::kCounter:
        if (first_of_family) append_help_type(out, name, entry.help, "counter");
        out += series;
        out += ' ';
        out += std::to_string(entry.counter);
        out += '\n';
        break;
      case MetricsSnapshot::Entry::Kind::kGauge:
        if (first_of_family) append_help_type(out, name, entry.help, "gauge");
        out += series;
        out += ' ';
        out += std::to_string(entry.gauge);
        out += '\n';
        break;
      case MetricsSnapshot::Entry::Kind::kDoubleSum:
        // Prometheus has no double-counter distinction; expose as counter.
        if (first_of_family) append_help_type(out, name, entry.help, "counter");
        out += series;
        out += ' ';
        out += render_double(entry.double_sum);
        out += '\n';
        break;
      case MetricsSnapshot::Entry::Kind::kHistogram: {
        append_help_type(out, name, entry.help, "histogram");
        // Cumulative buckets: le="2^i - 1" is the inclusive upper bound of
        // bucket i (bucket 0 is the value 0, le="0").  Empty tail buckets
        // are elided; +Inf always closes the series.
        std::uint64_t cumulative = 0;
        std::size_t last_nonzero = 0;
        for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
          if (entry.histogram.buckets[i] != 0) last_nonzero = i;
        for (std::size_t i = 0;
             i <= last_nonzero && i < HistogramSnapshot::kBuckets - 1; ++i) {
          cumulative += entry.histogram.buckets[i];
          const std::uint64_t upper =
              i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
          out += name;
          out += "_bucket{le=\"";
          out += std::to_string(upper);
          out += "\"} ";
          out += std::to_string(cumulative);
          out += '\n';
        }
        out += name;
        out += "_bucket{le=\"+Inf\"} ";
        out += std::to_string(entry.histogram.count);
        out += '\n';
        out += name;
        out += "_sum ";
        out += std::to_string(entry.histogram.sum);
        out += '\n';
        out += name;
        out += "_count ";
        out += std::to_string(entry.histogram.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace dominosyn::obs
