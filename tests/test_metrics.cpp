// Tests for the observability layer: the metrics registry (counters, gauges,
// log-bucketed histograms with striped shards, callback series, Prometheus
// rendering), the per-request span tracing (collector nesting and overflow,
// ring retention, slowest-N, the tree dump), and their wiring through the
// InferenceEngine — including the EngineStats/scrape consistency invariant
// and the zero-allocation guarantee of the tracing-off path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/metrics/registry.h"
#include "runtime/metrics/trace.h"
#include "runtime/registry.h"
#include "runtime/servable.h"

using namespace ascend;
using namespace ascend::runtime;
using namespace ascend::runtime::metrics;

// Global allocation counter backing the zero-allocation assertions. Counting
// is exact for this binary: gtest runs tests sequentially and the measured
// sections spawn no threads.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

// GCC pairs the replaced operator new with the library delete and warns;
// the malloc/free pairing here is exact.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

// ---------------------------------------------------------------------------
// Registry: counters, gauges, identity
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterIdentityAndValues) {
  MetricsRegistry reg;
  Counter& a = reg.counter("reqs_total", {{"variant", "a"}});
  Counter& b = reg.counter("reqs_total", {{"variant", "b"}});
  EXPECT_NE(&a, &b);
  // Re-registration returns the same object (stable handles).
  EXPECT_EQ(&a, &reg.counter("reqs_total", {{"variant", "a"}}));
  a.add();
  a.add(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 0u);
}

TEST(MetricsRegistry, GaugeSetAddMax) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);
  g.set_max(3);  // below current: no-op
  EXPECT_EQ(g.value(), 5);
  g.set_max(11);
  EXPECT_EQ(g.value(), 11);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("m"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Histogram: bucket geometry, quantile bound, concurrent merge
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesAreExact) {
  HistogramOptions opts;  // sub_bits = 5
  // Below 2^sub_bits each value owns a bucket: index == value.
  for (std::uint64_t v = 0; v < 32; ++v)
    EXPECT_EQ(Histogram::bucket_index(opts, v), static_cast<int>(v));
  EXPECT_EQ(Histogram::bucket_lower(opts, 17), 17u);
}

TEST(Histogram, BucketRoundTrip) {
  HistogramOptions opts;
  for (std::uint64_t v : {32ull, 33ull, 100ull, 1023ull, 1ull << 20, (1ull << 31) + 12345}) {
    const int idx = Histogram::bucket_index(opts, v);
    EXPECT_LE(Histogram::bucket_lower(opts, idx), v) << v;
    EXPECT_GT(Histogram::bucket_lower(opts, idx + 1), v) << v;
    // Relative bucket width bounds the quantile error.
    const double lo = static_cast<double>(Histogram::bucket_lower(opts, idx));
    const double hi = static_cast<double>(Histogram::bucket_lower(opts, idx + 1));
    EXPECT_LE((hi - lo) / lo, 1.0 / 32 + 1e-12) << v;
  }
}

TEST(Histogram, ClampBucketCatchesHugeValues) {
  HistogramOptions opts;
  opts.max_exp = 10;
  Histogram h(opts);
  h.record(1u << 9);
  h.record(123456789);  // >= 2^10: clamps, max stays exact
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max, 123456789u);
  EXPECT_EQ(snap.buckets.back(), 1u);
  // The top quantile reports the exact max, not a bucket bound.
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 123456789.0);
}

TEST(Histogram, QuantileErrorBoundOnUniformData) {
  Histogram h;  // sub_bits = 5 -> relative error <= 2^-5
  const std::uint64_t n = 20000;
  for (std::uint64_t v = 1; v <= n; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum, n * (n + 1) / 2);
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = 1.0 + q * static_cast<double>(n - 1);
    const double est = snap.quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, 1.0 / 32) << "q=" << q;
  }
}

TEST(Histogram, ConcurrentRecordsMergeExactly) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPer; ++i) h.record(i % 100 + 1);
    });
  for (auto& t : ts) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPer);
  std::uint64_t per_thread_sum = 0;
  for (std::uint64_t i = 0; i < kPer; ++i) per_thread_sum += i % 100 + 1;
  EXPECT_EQ(snap.sum, kThreads * per_thread_sum);
  EXPECT_EQ(snap.max, 100u);
}

// ---------------------------------------------------------------------------
// Prometheus rendering + typed snapshot + callbacks
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("requests_total", {{"variant", "a"}}, "Total requests").add(3);
  reg.gauge("queue_depth").set(2);
  Histogram& h = reg.histogram("lat_usec", {}, {}, "Latency");
  h.record(10);
  h.record(100);
  h.record(100);
  h.record(100);
  const std::string expected =
      "# HELP requests_total Total requests\n"
      "# TYPE requests_total counter\n"
      "requests_total{variant=\"a\"} 3\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2\n"
      "# HELP lat_usec Latency\n"
      "# TYPE lat_usec summary\n"
      "lat_usec{quantile=\"0.5\"} 100.5\n"
      "lat_usec{quantile=\"0.95\"} 100.5\n"
      "lat_usec{quantile=\"0.99\"} 100.5\n"
      "lat_usec{quantile=\"0.999\"} 100.5\n"
      "lat_usec_sum 310\n"
      "lat_usec_count 4\n";
  EXPECT_EQ(reg.render_prometheus(), expected);
}

TEST(MetricsRegistry, TypedSnapshotAndLookup) {
  MetricsRegistry reg;
  reg.counter("c", {{"k", "v"}}).add(9);
  reg.histogram("h", {{"x", "1"}}).record(42);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].name, "c");
  EXPECT_EQ(snap.series[0].kind, SeriesKind::kCounter);
  EXPECT_DOUBLE_EQ(snap.series[0].value, 9.0);
  const HistogramSnapshot* h = snap.histogram("h", {{"x", "1"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(snap.histogram("h", {{"x", "2"}}), nullptr);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(MetricsRegistry, CallbackSeriesSampleAndRemove) {
  MetricsRegistry reg;
  int live = 7;
  const CallbackId id = reg.register_callback(
      "live_depth", {{"k", "v"}}, SeriesKind::kGauge, [&live] { return double(live); });
  EXPECT_NE(reg.render_prometheus().find("live_depth{k=\"v\"} 7"), std::string::npos);
  live = 9;  // sampled at scrape time, not registration time
  EXPECT_NE(reg.render_prometheus().find("live_depth{k=\"v\"} 9"), std::string::npos);
  reg.remove_callback(id);
  EXPECT_EQ(reg.render_prometheus().find("live_depth{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span collection
// ---------------------------------------------------------------------------

TEST(SpanCollector, NestingDepthsAndOrder) {
  trace::SpanCollector c;
  trace::CollectorScope scope(&c);
  {
    trace::ScopedSpan a("outer");
    {
      trace::ScopedSpan b("inner", 3);
    }
  }
  ASSERT_EQ(c.count(), 2);
  EXPECT_STREQ(c.spans()[0].name, "outer");
  EXPECT_EQ(c.spans()[0].depth, 0);
  EXPECT_STREQ(c.spans()[1].name, "inner");
  EXPECT_EQ(c.spans()[1].index, 3);
  EXPECT_EQ(c.spans()[1].depth, 1);
  EXPECT_LE(c.spans()[0].begin, c.spans()[1].begin);
  EXPECT_LE(c.spans()[1].end, c.spans()[0].end);
}

TEST(SpanCollector, OverflowDropsAreCountedAndBalanced) {
  trace::SpanCollector c;
  for (int i = 0; i < trace::kMaxSpans + 12; ++i) {
    c.begin("s");
    c.end();
  }
  EXPECT_EQ(c.count(), trace::kMaxSpans);
  EXPECT_EQ(c.dropped(), 12);
  // Every stored span got its end stamp despite the interleaved drops.
  for (int i = 0; i < c.count(); ++i) EXPECT_GE(c.spans()[i].end, c.spans()[i].begin);
}

TEST(SpanCollector, DepthOverflowKeepsBalance) {
  trace::SpanCollector c;
  const int deep = trace::kMaxSpanDepth + 2;
  for (int i = 0; i < deep; ++i) c.begin("d");
  for (int i = 0; i < deep; ++i) c.end();
  EXPECT_EQ(c.count(), trace::kMaxSpanDepth);
  EXPECT_EQ(c.dropped(), 2);
  // After unwinding, new spans land at depth 0 again.
  c.begin("after");
  c.end();
  EXPECT_EQ(c.spans()[c.count() - 1].depth, 0);
}

TEST(ScopedSpan, NoCollectorMeansNoAllocation) {
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    trace::ScopedSpan s("hot", i);
  }
  EXPECT_EQ(g_allocs.load(), before);
  // The traced path is allocation-free too: fixed arrays, stack collector.
  trace::SpanCollector c;
  trace::CollectorScope scope(&c);
  const std::uint64_t before_traced = g_allocs.load();
  for (int i = 0; i < 40; ++i) {
    trace::ScopedSpan s("hot", i);
  }
  EXPECT_EQ(g_allocs.load(), before_traced);
}

// ---------------------------------------------------------------------------
// Tracer retention
// ---------------------------------------------------------------------------

trace::RequestTrace make_trace(std::uint64_t seq, double total_ms) {
  trace::RequestTrace t;
  t.seq = seq;
  t.set_variant("v");
  const auto base = trace::Clock::now();
  t.enqueue = base;
  t.batch_close = base;
  t.forward_start = base;
  t.forward_end = base + std::chrono::microseconds(static_cast<int64_t>(total_ms * 1000));
  t.complete = t.forward_end;
  return t;
}

TEST(Tracer, RingWrapsKeepingLastN) {
  trace::TracerOptions opts;
  opts.enabled = true;
  opts.ring_size = 4;
  opts.slowest = 0;
  trace::Tracer tracer(opts);
  for (std::uint64_t s = 0; s < 10; ++s) tracer.record(make_trace(s, 1.0));
  const auto recent = tracer.recent();  // single-threaded: one shard ring
  ASSERT_EQ(recent.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(recent[i].seq, 6 + i);  // oldest first
}

TEST(Tracer, SlowestRetentionSurvivesRingWrap) {
  trace::TracerOptions opts;
  opts.enabled = true;
  opts.ring_size = 2;  // the slow one falls out of the ring immediately
  opts.slowest = 2;
  trace::Tracer tracer(opts);
  tracer.record(make_trace(0, 50.0));  // the straggler
  for (std::uint64_t s = 1; s < 8; ++s) tracer.record(make_trace(s, double(s)));
  const auto slowest = tracer.slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].seq, 0u);  // slowest first
  EXPECT_EQ(slowest[1].seq, 7u);
  const auto recent = tracer.recent();
  for (const auto& t : recent) EXPECT_NE(t.seq, 0u);  // wrapped out of the ring
}

TEST(Tracer, FormatTraceRendersTree) {
  trace::RequestTrace t = make_trace(42, 10.0);
  t.set_variant("sc-lut");
  t.priority = 0;
  t.batch_size = 5;
  const auto base = t.forward_start;
  auto span = [&](const char* name, int index, int depth, int b_us, int e_us) {
    trace::Span s;
    s.name = name;
    s.index = index;
    s.depth = static_cast<std::int16_t>(depth);
    s.begin = base + std::chrono::microseconds(b_us);
    s.end = base + std::chrono::microseconds(e_us);
    return s;
  };
  t.spans[0] = span("embed", -1, 0, 0, 100);
  t.spans[1] = span("block", 0, 0, 100, 900);
  t.spans[2] = span("msa", -1, 1, 100, 500);
  t.spans[3] = span("mlp", -1, 1, 500, 900);
  t.spans[4] = span("head", -1, 0, 900, 950);
  t.num_spans = 5;
  const std::string out = trace::format_trace(t);
  EXPECT_NE(out.find("request #42"), std::string::npos);
  EXPECT_NE(out.find("variant=sc-lut"), std::string::npos);
  EXPECT_NE(out.find("priority=interactive"), std::string::npos);
  EXPECT_NE(out.find("queue wait"), std::string::npos);
  EXPECT_NE(out.find("dispatch"), std::string::npos);
  EXPECT_NE(out.find("block[0]"), std::string::npos);
  EXPECT_NE(out.find("msa"), std::string::npos);
  EXPECT_NE(out.find("├─"), std::string::npos);
  EXPECT_NE(out.find("└─ resolve"), std::string::npos);
  // Children of block[0] are indented under it with a continuation bar.
  EXPECT_LT(out.find("block[0]"), out.find("msa"));
  EXPECT_LT(out.find("msa"), out.find("mlp"));
}

// ---------------------------------------------------------------------------
// Engine wiring
// ---------------------------------------------------------------------------

/// Toy servable that emits a span per forward, so engine tests can assert
/// span capture end-to-end.
class SpanningServable final : public Servable {
 public:
  explicit SpanningServable(std::string id, std::chrono::milliseconds delay = {})
      : id_(std::move(id)), delay_(delay) {}

  nn::Tensor infer(const nn::Tensor& batch) const override {
    trace::ScopedSpan span("mock");
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    nn::Tensor logits({batch.dim(0), kClasses});
    for (int r = 0; r < batch.dim(0); ++r)
      logits.at(r, static_cast<int>(batch.at(r, 0)) % kClasses) = 1.0f;
    return logits;
  }
  int input_dim() const override { return kInputDim; }
  int output_dim() const override { return kClasses; }
  const std::string& variant_id() const override { return id_; }

  static constexpr int kInputDim = 4;
  static constexpr int kClasses = 8;

 private:
  std::string id_;
  std::chrono::milliseconds delay_;
};

std::vector<float> payload(float head) {
  std::vector<float> p(SpanningServable::kInputDim, 0.0f);
  p[0] = head;
  return p;
}

TEST(EngineObservability, SpanOrderingUnderConcurrentSubmits) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<SpanningServable>("mock"));
  EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(200);
  opts.concurrent_forwards = 2;
  opts.trace.enabled = true;
  InferenceEngine engine(registry, opts);

  constexpr int kThreads = 4, kPer = 25;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&engine] {
      for (int i = 0; i < kPer; ++i) engine.submit(payload(float(i % 8))).get();
    });
  for (auto& t : ts) t.join();

  const auto traces = engine.tracer().recent();
  ASSERT_FALSE(traces.empty());
  for (const auto& t : traces) {
    // Lifecycle stamps are monotone...
    EXPECT_LE(t.enqueue, t.batch_close);
    EXPECT_LE(t.batch_close, t.forward_start);
    EXPECT_LE(t.forward_start, t.forward_end);
    EXPECT_LE(t.forward_end, t.complete);
    // ...and the forward's spans sit inside the forward window.
    ASSERT_GE(t.num_spans, 1);
    EXPECT_EQ(t.spans_dropped, 0);
    for (int i = 0; i < t.num_spans; ++i) {
      EXPECT_STREQ(t.spans[i].name, "mock");
      EXPECT_GE(t.spans[i].begin, t.forward_start);
      EXPECT_LE(t.spans[i].end, t.forward_end);
    }
  }
  // Every trace also made it into the slowest set's ordering invariant.
  const auto slowest = engine.tracer().slowest();
  for (std::size_t i = 1; i < slowest.size(); ++i)
    EXPECT_GE(slowest[i - 1].complete - slowest[i - 1].enqueue,
              slowest[i].complete - slowest[i].enqueue);
}

TEST(EngineObservability, TracingOffRecordsNothing) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<SpanningServable>("mock"));
  InferenceEngine engine(registry, {});  // trace.enabled defaults to false
  for (int i = 0; i < 10; ++i) engine.submit(payload(1.0f)).get();
  EXPECT_FALSE(engine.tracer().enabled());
  EXPECT_TRUE(engine.tracer().recent().empty());
  EXPECT_TRUE(engine.tracer().slowest().empty());
}

TEST(EngineObservability, CountersMatchEngineStats) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<SpanningServable>("mock"));
  EngineOptions opts;
  opts.max_batch = 4;
  InferenceEngine engine(registry, opts);
  for (int i = 0; i < 12; ++i) engine.submit(payload(1.0f)).get();
  // Futures resolve just before the forward worker retires its slot; wait
  // for quiescence so the in-flight gauge reads 0 deterministically.
  for (int probe = 0; probe < 500 && engine.in_flight() != 0; ++probe)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.images, 12u);
  EXPECT_EQ(st.priority(Priority::kNormal).queued, 12u);
  EXPECT_EQ(st.priority(Priority::kNormal).served, 12u);

  // The scrape reads the same atomics through callback series.
  const RegistrySnapshot snap = engine.metrics()->snapshot();
  auto series_value = [&](const std::string& name, const Labels& labels) -> double {
    for (const auto& s : snap.series)
      if (s.name == name && s.labels == labels) return s.value;
    ADD_FAILURE() << "missing series " << series_key(name, labels);
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(series_value("ascend_requests_queued_total", {{"priority", "normal"}}), 12.0);
  EXPECT_DOUBLE_EQ(series_value("ascend_requests_served_total", {{"priority", "normal"}}), 12.0);
  EXPECT_DOUBLE_EQ(series_value("ascend_images_served_total", {}), 12.0);
  EXPECT_DOUBLE_EQ(series_value("ascend_queue_depth_total", {}), 0.0);
  EXPECT_DOUBLE_EQ(series_value("ascend_in_flight_forwards", {}), 0.0);
  EXPECT_GE(series_value("ascend_peak_in_flight_forwards", {}), 1.0);
  // Two slots, one client: each lone request closes by the idle cutoff
  // (at once, or when the previous forward retires its slot).
  EXPECT_DOUBLE_EQ(series_value("ascend_idle_batches_total", {}),
                   static_cast<double>(st.idle_batches));
  EXPECT_GE(st.idle_batches, 1u);
  EXPECT_LE(st.idle_batches, st.batches);

  // Latency histograms exist per (variant, priority) and saw every request.
  const HistogramSnapshot* lat = snap.histogram(
      "ascend_request_latency_usec", {{"variant", "mock"}, {"priority", "normal"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 12u);
  const HistogramSnapshot* fill = snap.histogram("ascend_batch_fill");
  ASSERT_NE(fill, nullptr);
  EXPECT_EQ(fill->count, st.batches);
}

TEST(EngineObservability, QueueDepthAndInFlightGauges) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<SpanningServable>("mock", std::chrono::milliseconds(20)));
  EngineOptions opts;
  opts.max_batch = 1;
  opts.max_delay = std::chrono::microseconds(100);
  opts.concurrent_forwards = 1;
  InferenceEngine engine(registry, opts);

  RequestOptions batch_req;
  batch_req.priority = Priority::kBatch;
  std::vector<std::future<Prediction>> futs;
  for (int i = 0; i < 6; ++i) futs.push_back(engine.submit(payload(1.0f), batch_req));
  // With 20 ms forwards and a single in-flight slot, a backlog must be
  // observable while the first forwards run.
  bool saw_backlog = false, saw_in_flight = false;
  for (int probe = 0; probe < 200 && !(saw_backlog && saw_in_flight); ++probe) {
    const PendingCounts q = engine.pending();
    EXPECT_EQ(q.total, q.by_priority[0] + q.by_priority[1] + q.by_priority[2]);
    if (q.priority(Priority::kBatch) > 0) saw_backlog = true;
    if (engine.in_flight() > 0) saw_in_flight = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_backlog);
  EXPECT_TRUE(saw_in_flight);
  for (auto& f : futs) f.get();
  EXPECT_EQ(engine.pending().total, 0u);
  // The future resolves inside the forward task, slightly before the worker
  // decrements the in-flight count — poll for the quiescent state.
  for (int probe = 0; probe < 500 && engine.in_flight() != 0; ++probe)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(engine.in_flight(), 0);
}

TEST(EngineObservability, StatsConsistentUnderConcurrentScrape) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<SpanningServable>("mock", std::chrono::milliseconds(1)));
  EngineOptions opts;
  opts.max_batch = 8;
  opts.concurrent_forwards = 2;
  InferenceEngine engine(registry, opts);

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const EngineStats st = engine.stats();
      for (int p = 0; p < kNumPriorities; ++p) {
        const PriorityStats& ps = st.by_priority[static_cast<std::size_t>(p)];
        // The invariant the atomics' read order guarantees: completions can
        // never be observed ahead of admissions.
        EXPECT_LE(ps.served + ps.deadline_dropped, ps.queued);
      }
      (void)engine.metrics()->render_prometheus();  // scrape must not wedge serving
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t)
    writers.emplace_back([&engine] {
      for (int i = 0; i < 40; ++i) engine.submit(payload(1.0f)).get();
    });
  for (auto& t : writers) t.join();
  done.store(true);
  scraper.join();
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.priority(Priority::kNormal).queued, 120u);
  EXPECT_EQ(st.priority(Priority::kNormal).served, 120u);
}

TEST(EngineObservability, SharedRegistryUnregistersOnEngineDestruction) {
  auto shared = std::make_shared<MetricsRegistry>();
  {
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish(std::make_shared<SpanningServable>("mock"));
    EngineOptions opts;
    opts.metrics = shared;
    InferenceEngine engine(registry, opts);
    engine.submit(payload(1.0f)).get();
    EXPECT_NE(shared->render_prometheus().find("ascend_queue_depth_total"), std::string::npos);
  }
  // Engine gone: its callback series must not dangle into a scrape.
  const std::string after = shared->render_prometheus();
  EXPECT_EQ(after.find("ascend_queue_depth_total 0"), std::string::npos);
  // Histogram series the engine recorded into remain valid (registry owns them).
  EXPECT_NE(after.find("ascend_request_latency_usec"), std::string::npos);
}

}  // namespace
