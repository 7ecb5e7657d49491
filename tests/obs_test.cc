#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/span.h"

namespace vada::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(CounterTest, IncrementAndRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, BucketBoundsAreInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket 0 (<= 1)
  h.Observe(1.0);  // bucket 0 (bound is inclusive)
  h.Observe(1.5);  // bucket 1
  h.Observe(4.0);  // bucket 2
  h.Observe(9.0);  // +Inf bucket
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(HistogramTest, ConcurrentObservesKeepCountAndSumConsistent) {
  Histogram h(Histogram::DefaultLatencyBucketsSeconds());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(0.001);
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), kTotal);
  EXPECT_NEAR(h.sum(), 0.001 * kTotal, 1e-6);
  uint64_t bucket_total = 0;
  for (uint64_t c : h.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(RegistryTest, SameNameAndLabelsReturnSameObject) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("vada_test_hits", "help");
  Counter* b = reg.GetCounter("vada_test_hits", "help");
  EXPECT_EQ(a, b);
  Counter* labelled =
      reg.GetCounter("vada_test_hits", "help", {{"kind", "x"}});
  EXPECT_NE(a, labelled);
  EXPECT_EQ(labelled,
            reg.GetCounter("vada_test_hits", "help", {{"kind", "x"}}));
}

TEST(RegistryTest, SnapshotFindAndValue) {
  MetricsRegistry reg;
  reg.GetCounter("vada_test_hits", "")->Increment(3);
  reg.GetGauge("vada_test_depth", "")->Set(-2);
  Histogram* h = reg.GetHistogram("vada_test_latency", "", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.Value("vada_test_hits"), 3.0);
  EXPECT_DOUBLE_EQ(snap.Value("vada_test_depth"), -2.0);
  // Histograms report their observation count through Value().
  EXPECT_DOUBLE_EQ(snap.Value("vada_test_latency"), 2.0);
  EXPECT_DOUBLE_EQ(snap.Value("vada_test_absent"), 0.0);
  const MetricSample* s = snap.Find("vada_test_latency");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kHistogram);
  EXPECT_EQ(s->count, 2u);
}

TEST(RegistryTest, FindMatchesLabels) {
  MetricsRegistry reg;
  reg.GetCounter("vada_test_runs", "", {{"transducer", "mapgen"}})
      ->Increment(7);
  reg.GetCounter("vada_test_runs", "", {{"transducer", "fusion"}})
      ->Increment(2);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("vada_test_runs", {{"transducer", "mapgen"}}),
                   7.0);
  EXPECT_DOUBLE_EQ(snap.Value("vada_test_runs", {{"transducer", "fusion"}}),
                   2.0);
  EXPECT_EQ(snap.Find("vada_test_runs", {{"transducer", "absent"}}), nullptr);
}

// Golden test: a deterministic registry renders to this exact exposition
// text (families sorted by name; labels sorted; cumulative buckets).
TEST(PrometheusTest, RendersExpositionFormat) {
  MetricsRegistry reg;
  reg.GetCounter("vada_test_hits", "total hits")->Increment(5);
  reg.GetGauge("vada_test_rows", "rows", {{"relation", "property"}})->Set(12);
  Histogram* h = reg.GetHistogram("vada_test_latency", "latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(3.0);

  const char* expected =
      "# HELP vada_test_hits total hits\n"
      "# TYPE vada_test_hits counter\n"
      "vada_test_hits 5\n"
      "# HELP vada_test_latency latency\n"
      "# TYPE vada_test_latency histogram\n"
      "vada_test_latency_bucket{le=\"0.1\"} 2\n"
      "vada_test_latency_bucket{le=\"1\"} 3\n"
      "vada_test_latency_bucket{le=\"+Inf\"} 4\n"
      "vada_test_latency_sum 3.6\n"
      "vada_test_latency_count 4\n"
      "# HELP vada_test_rows rows\n"
      "# TYPE vada_test_rows gauge\n"
      "vada_test_rows{relation=\"property\"} 12\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

// Label values escape exactly backslash, double-quote and line feed —
// nothing else. Relation names are user data (CSV headers, target
// schemas), so a quote in a name must not corrupt the exposition.
TEST(PrometheusTest, LabelValuesEscapedPerExpositionFormat) {
  MetricsRegistry reg;
  reg.GetGauge("vada_test_esc", "", {{"relation", "a\\b\"c\nd\te"}})->Set(1);
  std::string text = reg.RenderPrometheus();
  // Backslash -> \\, quote -> \", newline -> \n; the tab stays literal
  // (\uXXXX-style escapes are JSON, not exposition format).
  EXPECT_NE(text.find("vada_test_esc{relation=\"a\\\\b\\\"c\\nd\te\"} 1"),
            std::string::npos)
      << text;
  // No raw newline may survive inside a label value: every line must
  // still start with a metric name or '#'.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(line[0] == '#' || line.rfind("vada_test_esc", 0) == 0)
        << line;
  }
}

// Structural validity check, applied to a richer registry: every
// non-comment line is `name{labels}? value`.
TEST(PrometheusTest, EveryLineParsesAsExposition) {
  MetricsRegistry reg;
  reg.GetCounter("vada_test_a", "a help")->Increment();
  reg.GetGauge("vada_test_b", "", {{"k1", "v1"}, {"k2", "v 2"}})->Set(3);
  reg.GetHistogram("vada_test_c", "c help",
                   Histogram::DefaultLatencyBucketsSeconds())
      ->Observe(0.01);
  std::string text = reg.RenderPrometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  size_t pos = 0;
  int samples = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    ++samples;
    // name is [a-zA-Z_][a-zA-Z0-9_]*, optionally followed by {…}, then
    // exactly one space and a value.
    size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_')) {
      ++i;
    }
    ASSERT_GT(i, 0u) << line;
    if (i < line.size() && line[i] == '{') {
      size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    char* end = nullptr;
    std::string value = line.substr(i + 1);
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
  }
  // 1 counter + 1 gauge + (8 bounds + Inf + sum + count) histogram lines.
  EXPECT_EQ(samples, 1 + 1 + 11);
}

// ------------------------------------------------------------------ json

TEST(JsonTest, EscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonTest, LintAcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "-1.5e3", "\"s\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\n\"}"}) {
    std::string error;
    EXPECT_TRUE(JsonLint(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonTest, LintRejectsInvalidDocuments) {
  for (const char* doc : {"", "{", "[1,]", "{\"a\":}", "{} extra", "'s'",
                          "{\"a\" 1}", "nul"}) {
    EXPECT_FALSE(JsonLint(doc)) << doc;
  }
}

// ----------------------------------------------------------------- spans

TEST(SpanTest, ScopedSpanRecordsIntoCollectorAndHistogram) {
  SpanCollector collector;
  Histogram hist(Histogram::DefaultLatencyBucketsSeconds());
  {
    ScopedSpan outer(&collector, &hist, "outer", "test");
    ScopedSpan inner(&collector, nullptr, "inner");
  }
  std::vector<SpanRecord> spans = collector.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are recorded on close: inner first, at depth 1.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].category, "test");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].end_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_EQ(hist.count(), 1u);  // only the outer span had a histogram
}

TEST(SpanTest, NullTargetsAreNoOp) {
  ScopedSpan span(nullptr, nullptr, "ignored");
  // Nothing to assert beyond "does not crash": with both targets null the
  // span must not touch the clock or allocate its name.
}

// Each recording thread gets its own dense lane id, so concurrent spans
// from different threads reconstruct as separate trace rows instead of
// one interleaved mess.
TEST(SpanTest, EachRecordingThreadGetsItsOwnLane) {
  SpanCollector collector;
  {
    ScopedSpan s(&collector, nullptr, "caller");
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&collector] {
      ScopedSpan outer(&collector, nullptr, "outer");
      ScopedSpan inner(&collector, nullptr, "inner");
    });
  }
  for (std::thread& t : workers) t.join();

  std::vector<SpanRecord> spans = collector.spans();
  ASSERT_EQ(spans.size(), 7u);
  EXPECT_EQ(collector.lanes(), 4u);  // calling thread + 3 workers
  std::set<uint64_t> lanes;
  for (const SpanRecord& s : spans) lanes.insert(s.lane);
  EXPECT_EQ(lanes.size(), 4u);
  // Depth bookkeeping is per-thread: every worker's inner span sits at
  // depth 1 under its outer span on the same lane.
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.depth, s.name == "inner" ? 1u : 0u) << s.name;
  }
}

// ------------------------------------------------------------ obs context

TEST(ObsContextTest, DisabledReturnsNullEverything) {
  ObsOptions options;
  options.enabled = false;
  ObsContext ctx(options);
  EXPECT_FALSE(ctx.enabled());
  EXPECT_EQ(ctx.metrics(), nullptr);
  EXPECT_EQ(ctx.spans(), nullptr);
}

TEST(ObsContextTest, OwnsPrivateRegistryByDefault) {
  ObsContext a;
  ObsContext b;
  ASSERT_NE(a.metrics(), nullptr);
  ASSERT_NE(b.metrics(), nullptr);
  EXPECT_NE(a.metrics(), b.metrics());
  EXPECT_NE(a.metrics(), &MetricsRegistry::Default());
  a.metrics()->GetCounter("vada_test_private", "")->Increment();
  EXPECT_DOUBLE_EQ(b.metrics()->Snapshot().Value("vada_test_private"), 0.0);
}

TEST(ObsContextTest, UsesProvidedRegistry) {
  MetricsRegistry shared;
  ObsOptions options;
  options.registry = &shared;
  ObsContext ctx(options);
  EXPECT_EQ(ctx.metrics(), &shared);
}

TEST(ObsContextTest, SpanCollectionCanBeDisabledAlone) {
  ObsOptions options;
  options.collect_spans = false;
  ObsContext ctx(options);
  EXPECT_NE(ctx.metrics(), nullptr);
  EXPECT_EQ(ctx.spans(), nullptr);
}

// ----------------------------------------------------------- chrome trace

TEST(ChromeTraceTest, ToJsonIsValidAndCarriesEvents) {
  ChromeTraceBuilder builder;
  ChromeTraceEvent e;
  e.name = "mapping_generation";
  e.category = "execution";
  e.ts_us = 100;
  e.dur_us = 250;
  e.args = {{"step", "1"}, {"note", "quote\"inside"}};
  builder.Add(e);

  SpanCollector collector;
  {
    ScopedSpan span(&collector, nullptr, "dep_check", "orchestrator");
  }
  builder.AddSpans(collector);
  EXPECT_EQ(builder.size(), 2u);

  std::string json = builder.ToJson();
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mapping_generation\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dep_check\""), std::string::npos);
  // Spans land on their own lane.
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(ChromeTraceTest, EmptyBuilderStillValidJson) {
  ChromeTraceBuilder builder;
  std::string error;
  EXPECT_TRUE(JsonLint(builder.ToJson(), &error)) << error;
}

}  // namespace
}  // namespace vada::obs
