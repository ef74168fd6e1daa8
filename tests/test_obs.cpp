/// Tests for the observability subsystem (src/obs/):
///  * log2 histogram semantics: bucket boundaries at powers of two, merge
///    associativity/order-independence, quantiles checked against a
///    sorted-vector oracle on randomized samples, snapshot determinism,
///  * MetricsRegistry registration (idempotent by name, kind clashes throw)
///    and Prometheus text exposition (cumulative le buckets, _sum/_count),
///  * concurrent record vs snapshot: every sample lands exactly once and a
///    mid-flight snapshot is internally consistent (TSan gates the races),
///  * span tracing: trace-id context nesting, RAII spans land in the thread
///    ring with the right id/category, remote ingestion labels a second
///    process timeline in the Chrome dump, each annealing restart records a
///    search.anneal span, and the wire codec round-trips — the codec tests
///    run even under DOMINOSYN_NO_TRACING.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "bdd/netbdd.hpp"
#include "benchgen/benchgen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phase/search.hpp"

namespace dominosyn::obs {
namespace {

TEST(HistogramBuckets, BoundariesAtPowersOfTwo) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(histogram_bucket_of(0), 0u);
  EXPECT_EQ(histogram_bucket_of(1), 1u);
  EXPECT_EQ(histogram_bucket_of(2), 2u);
  EXPECT_EQ(histogram_bucket_of(3), 2u);
  EXPECT_EQ(histogram_bucket_of(4), 3u);
  for (std::size_t k = 1; k + 1 < HistogramSnapshot::kBuckets; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    const std::uint64_t hi = (std::uint64_t{1} << k) - 1;
    EXPECT_EQ(histogram_bucket_of(lo), k) << "lower edge of bucket " << k;
    EXPECT_EQ(histogram_bucket_of(hi), k) << "upper edge of bucket " << k;
  }
  // The last bucket is open-ended: the clamp catches everything above 2^62.
  EXPECT_EQ(histogram_bucket_of(std::uint64_t{1} << 63),
            HistogramSnapshot::kBuckets - 1);
  EXPECT_EQ(histogram_bucket_of(~std::uint64_t{0}),
            HistogramSnapshot::kBuckets - 1);
  // bucket_lower is the left inverse of bucket_of on bucket lower bounds.
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
    EXPECT_EQ(histogram_bucket_of(histogram_bucket_lower(i)), i);
}

TEST(HistogramBuckets, RecordCountsEveryBucketOnce) {
  Histogram hist;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
    hist.record(histogram_bucket_lower(i));
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, HistogramSnapshot::kBuckets);
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
    EXPECT_EQ(snap.buckets[i], 1u) << "bucket " << i;
}

/// The oracle: quantile(q) must equal the lower bound of the bucket holding
/// the rank-ceil(q*count) sample of the sorted data (rank clamped to
/// [1, count]).  Bucketing is monotone, so sorting the raw samples orders
/// them bucket-by-bucket and the oracle needs no knowledge of the internals.
std::uint64_t oracle_quantile(std::vector<std::uint64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(std::clamp(
      std::ceil(q * static_cast<double>(sorted.size())), 1.0,
      static_cast<double>(sorted.size())));
  return histogram_bucket_lower(histogram_bucket_of(sorted[rank - 1]));
}

TEST(HistogramQuantiles, MatchSortedVectorOracleOnRandomSamples) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    // Mix scales so buckets from 0 to ~2^40 all get exercised.
    std::uniform_int_distribution<int> shift(0, 40);
    std::uniform_int_distribution<std::uint64_t> raw;
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 500);
    Histogram hist;
    std::vector<std::uint64_t> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t value = raw(rng) >> (63 - shift(rng));
      samples.push_back(value);
      hist.record(value);
    }
    const HistogramSnapshot snap = hist.snapshot();
    ASSERT_EQ(snap.count, n);
    for (const double q : {0.0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0})
      EXPECT_EQ(snap.quantile(q), oracle_quantile(samples, q))
          << "trial " << trial << " q=" << q << " n=" << n;
  }
}

TEST(HistogramQuantiles, EmptyHistogramIsAllZero) {
  const HistogramSnapshot empty;
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);
}

TEST(HistogramMerge, AssociativeAndOrderIndependent) {
  std::mt19937_64 rng(7);
  std::array<Histogram, 3> parts;
  Histogram whole;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t value = rng() >> (rng() % 64);
    parts[static_cast<std::size_t>(i) % 3].record(value);
    whole.record(value);
  }
  const HistogramSnapshot a = parts[0].snapshot();
  const HistogramSnapshot b = parts[1].snapshot();
  const HistogramSnapshot c = parts[2].snapshot();

  // (a+b)+c, a+(b+c), and the reversed order must all equal the unsplit
  // histogram — this is what makes worker->coordinator aggregation safe for
  // any arrival interleaving.
  HistogramSnapshot ab_c = a;
  ab_c.merge(b).merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  HistogramSnapshot cba = c;
  cba.merge(b).merge(a);
  const HistogramSnapshot reference = whole.snapshot();
  for (const HistogramSnapshot* merged : {&ab_c, &a_bc, &cba}) {
    EXPECT_EQ(merged->count, reference.count);
    EXPECT_EQ(merged->sum, reference.sum);
    EXPECT_EQ(merged->buckets, reference.buckets);
    for (const double q : {0.5, 0.95, 0.99})
      EXPECT_EQ(merged->quantile(q), reference.quantile(q));
  }
}

TEST(HistogramSnapshotTest, DeterministicAndInternallyConsistent) {
  Histogram hist;
  for (std::uint64_t v : {0u, 1u, 1u, 7u, 8u, 1000u, 1000000u}) hist.record(v);
  const HistogramSnapshot first = hist.snapshot();
  const HistogramSnapshot second = hist.snapshot();
  // Quiescent histogram: snapshots are identical, and count == sum(buckets).
  EXPECT_EQ(first.count, second.count);
  EXPECT_EQ(first.sum, second.sum);
  EXPECT_EQ(first.buckets, second.buckets);
  std::uint64_t total = 0;
  for (const std::uint64_t b : first.buckets) total += b;
  EXPECT_EQ(total, first.count);
  EXPECT_EQ(first.sum, 0u + 1 + 1 + 7 + 8 + 1000 + 1000000);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("requests", "help");
  Counter& c2 = registry.counter("requests");
  EXPECT_EQ(&c1, &c2);  // same instrument, stable address
  c1.add(3);
  c2.add(4);
  EXPECT_EQ(c1.value(), 7u);

  Gauge& g = registry.gauge("depth");
  g.set(-5);
  g.add(2);
  EXPECT_EQ(g.value(), -3);

  DoubleSum& d = registry.double_sum("tightness");
  d.add(0.25);
  d.add(0.5);
  EXPECT_EQ(d.value(), 0.75);

  // Same name, different kind: a programming error, loudly rejected.
  EXPECT_THROW((void)registry.gauge("requests"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("depth"), std::logic_error);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  // Name-sorted iteration keeps exports deterministic.
  EXPECT_EQ(snap.entries[0].name, "depth");
  EXPECT_EQ(snap.entries[1].name, "requests");
  EXPECT_EQ(snap.entries[2].name, "tightness");
  EXPECT_EQ(snap.entries[1].counter, 7u);
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("dominosyn_requests_total", "Requests.").add(5);
  registry.gauge("dominosyn_queue_depth", "Depth.").set(2);
  Histogram& hist = registry.histogram("dominosyn_latency_us", "Latency.");
  hist.record(0);   // bucket 0 (le="0")
  hist.record(1);   // bucket 1 (le="1")
  hist.record(3);   // bucket 2 (le="3")
  hist.record(100);  // bucket 7 (le="127")

  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("# HELP dominosyn_requests_total Requests.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dominosyn_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_requests_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dominosyn_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_queue_depth 2\n"), std::string::npos);
  // Histogram: cumulative le counts, inclusive upper bounds 2^i - 1.
  EXPECT_NE(text.find("# TYPE dominosyn_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_bucket{le=\"127\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_sum 104\n"), std::string::npos);
  EXPECT_NE(text.find("dominosyn_latency_us_count 4\n"), std::string::npos);
  // Text exposition format: every line newline-terminated.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsRegistryTest, LabelledSeriesShareOneFamilyPreamble) {
  MetricsRegistry registry;
  registry.counter("dominosyn_builds_total{method=\"exact\"}", "Builds.").add(3);
  registry.counter("dominosyn_builds_total{method=\"approx\"}", "Builds.").add(1);
  registry.counter("dominosyn_builds_other_total", "Other.").add(2);

  const std::string text = registry.prometheus();
  EXPECT_EQ(text,
            "# HELP dominosyn_builds_other_total Other.\n"
            "# TYPE dominosyn_builds_other_total counter\n"
            "dominosyn_builds_other_total 2\n"
            "# HELP dominosyn_builds_total Builds.\n"
            "# TYPE dominosyn_builds_total counter\n"
            "dominosyn_builds_total{method=\"approx\"} 1\n"
            "dominosyn_builds_total{method=\"exact\"} 3\n");
}

TEST(MetricsRegistryTest, ConcurrentRecordVsSnapshot) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  Histogram& hist = registry.histogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        hist.record(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });

  // Mid-flight snapshots: monotone count, and count always == sum(buckets)
  // as seen by the snapshot read (each bucket value is a real count).
  std::uint64_t last_count = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const HistogramSnapshot snap = hist.snapshot();
    std::uint64_t total = 0;
    for (const std::uint64_t b : snap.buckets) total += b;
    EXPECT_EQ(total, snap.count);
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
  }
  for (std::thread& writer : writers) writer.join();

  const HistogramSnapshot final_snap = hist.snapshot();
  EXPECT_EQ(final_snap.count, std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(counter.value(), std::uint64_t{kThreads} * kPerThread);
}

TEST(SpanWireCodec, RoundTripsAllFields) {
  // Always compiled (even under DOMINOSYN_NO_TRACING): a traced worker and
  // an untraced coordinator must still parse each other.
  std::vector<TraceEvent> events(3);
  std::strcpy(events[0].name, "dist.unit");
  events[0].trace_id = 42;
  events[0].start_us = 1'700'000'000'123'456ull;
  events[0].dur_us = 977;
  events[0].tid = 7;
  events[0].cat = static_cast<std::uint8_t>(SpanCat::kDist);
  std::strcpy(events[1].name, "search.bnb_subtree");
  events[1].trace_id = 42;
  events[1].cat = static_cast<std::uint8_t>(SpanCat::kSearch);
  std::strcpy(events[2].name, "flow.assign");
  events[2].cat = static_cast<std::uint8_t>(SpanCat::kFlow);

  const std::string wire = spans_to_wire(events);
  EXPECT_EQ(wire.find(' '), std::string::npos);  // single protocol token
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  const std::vector<TraceEvent> back = spans_from_wire(wire);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_STREQ(back[i].name, events[i].name);
    EXPECT_EQ(back[i].trace_id, events[i].trace_id);
    EXPECT_EQ(back[i].start_us, events[i].start_us);
    EXPECT_EQ(back[i].dur_us, events[i].dur_us);
    EXPECT_EQ(back[i].tid, events[i].tid);
    EXPECT_EQ(back[i].cat, events[i].cat);
  }
  EXPECT_TRUE(spans_to_wire({}).empty());
  EXPECT_TRUE(spans_from_wire("").empty());
  EXPECT_TRUE(spans_from_wire("garbage-with-no-structure").empty());
  // Exactly six positional fields, each number a whole token fitting its
  // type; the one good span of the five survives.  An empty field is a
  // field (`e,,1,...` is seven), so nothing shifts into the next one.
  const std::vector<TraceEvent> strict = spans_from_wire(
      "a,1,2,3,4,5,6;b,1,2,3,4,4294967296;c,1,2,3,4x,5;e,,1,2,3,4,5;"
      "d,1,2,3,4,5");
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_STREQ(strict[0].name, "d");
  // An empty name is what the encoder writes for one.
  TraceEvent unnamed;
  unnamed.cat = 1;
  const std::vector<TraceEvent> back_unnamed =
      spans_from_wire(spans_to_wire({unnamed}));
  ASSERT_EQ(back_unnamed.size(), 1u);
  EXPECT_STREQ(back_unnamed[0].name, "");
  EXPECT_EQ(back_unnamed[0].cat, 1u);
}

TEST(Tracing, ContextNestsAndSpansCarryTheThreadTraceId) {
  if (kTracingCompiledOut) GTEST_SKIP() << "tracing compiled out";
  const std::uint64_t id_a = mint_trace_id();
  const std::uint64_t id_b = mint_trace_id();
  EXPECT_GT(id_b, id_a);  // monotone mint, 0 reserved for "no trace"
  EXPECT_GT(id_a, 0u);

  const std::uint64_t mark = thread_mark();
  EXPECT_EQ(current_trace_id(), 0u);
  {
    TraceContext outer(id_a);
    EXPECT_EQ(current_trace_id(), id_a);
    {
      TraceContext inner(id_b);
      EXPECT_EQ(current_trace_id(), id_b);
      TraceSpan span("search.commit", SpanCat::kSearch);
    }
    EXPECT_EQ(current_trace_id(), id_a);  // nesting restores
    TraceSpan span("flow.assign", SpanCat::kFlow);
  }
  EXPECT_EQ(current_trace_id(), 0u);

  const std::vector<TraceEvent> events = thread_events_since(mark);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "search.commit");
  EXPECT_EQ(events[0].trace_id, id_b);
  EXPECT_EQ(events[0].cat, static_cast<std::uint8_t>(SpanCat::kSearch));
  EXPECT_STREQ(events[1].name, "flow.assign");
  EXPECT_EQ(events[1].trace_id, id_a);
}

TEST(Tracing, DisabledSpansRecordNothing) {
  if (kTracingCompiledOut) GTEST_SKIP() << "tracing compiled out";
  const std::uint64_t mark = thread_mark();
  set_tracing_enabled(false);
  { TraceSpan span("server.request", SpanCat::kServer); }
  set_tracing_enabled(true);
  EXPECT_TRUE(thread_events_since(mark).empty());
}

TEST(Tracing, RemoteEventsJoinTheChromeTimeline) {
  if (kTracingCompiledOut) GTEST_SKIP() << "tracing compiled out";
  const SpanCounts before = span_counts();

  TraceEvent remote{};
  std::strcpy(remote.name, "dist.unit");
  remote.trace_id = mint_trace_id();
  remote.start_us = 1'000;
  remote.dur_us = 50;
  remote.tid = 0;
  remote.cat = static_cast<std::uint8_t>(SpanCat::kDist);
  record_remote("worker-x", {remote});

  const SpanCounts after = span_counts();
  EXPECT_EQ(after[static_cast<std::size_t>(SpanCat::kDist)],
            before[static_cast<std::size_t>(SpanCat::kDist)] + 1);
  EXPECT_GT(total_spans(), 0u);

  const std::string json = chrome_trace_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);  // ships as one line
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // The remote process gets its own named timeline next to the local one.
  EXPECT_NE(json.find("\"name\":\"worker-x\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dist.unit\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"dist\""), std::string::npos);

  // Names escape like every protocol string: a control byte becomes \u00XX.
  record_remote("worker\x01y", {remote});
  EXPECT_NE(chrome_trace_json().find("\"name\":\"worker\\u0001y\""),
            std::string::npos);
}

TEST(Tracing, EveryAnnealingRestartRecordsOneSpan) {
  // A trace dump shows annealing's share of flow.assign through one
  // search.anneal span per restart.
  if (kTracingCompiledOut) GTEST_SKIP() << "tracing compiled out";
  BenchSpec spec;
  spec.name = "anneal";
  spec.num_pis = 8;
  spec.num_pos = 6;
  spec.gate_target = 60;
  spec.seed = 3;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator(
      net, signal_probabilities(net, std::vector<double>(net.num_pis(), 0.5)));
  MinAreaOptions options;
  options.exhaustive_limit = 0;  // anneal even though 2^6 is enumerable
  options.restarts = 3;
  options.anneal_iterations = 200;
  options.num_threads = 1;  // restarts run on this thread, into its ring

  const std::uint64_t mark = thread_mark();
  (void)min_area_assignment(evaluator, options);
  std::size_t anneal_spans = 0;
  for (const TraceEvent& event : thread_events_since(mark)) {
    if (std::strcmp(event.name, "search.anneal") != 0) continue;
    ++anneal_spans;
    EXPECT_EQ(event.cat, static_cast<std::uint8_t>(SpanCat::kSearch));
  }
  EXPECT_EQ(anneal_spans, options.restarts);
}

TEST(Tracing, SpanCatNamesMatchTheMetricLabels) {
  EXPECT_EQ(span_cat_name(SpanCat::kServer), "server");
  EXPECT_EQ(span_cat_name(SpanCat::kFlow), "flow");
  EXPECT_EQ(span_cat_name(SpanCat::kSearch), "search");
  EXPECT_EQ(span_cat_name(SpanCat::kDist), "dist");
}

}  // namespace
}  // namespace dominosyn::obs
