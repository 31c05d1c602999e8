#pragma once
// metrics/registry.h — named counters, gauges, and HDR-style histograms with
// a Prometheus text-format export.
//
// The serving stack records into handles obtained once at wiring time
// (Counter*, Histogram*); the registry mutex is only taken at registration
// and at scrape, never on the record path. Recording is lock-free:
//   * Counter / Gauge are single sequentially-consistent atomics. Counters
//     are cheap at request rates, and seq_cst gives scrape invariants a
//     total order (a request's `served` increment can never be observed
//     before its `queued` increment — see InferenceEngine).
//   * Histogram buckets are striped into per-thread shards (thread-local
//     shard index, relaxed atomics, cache-line padded) merged on scrape, so
//     concurrent recorders on the forward workers never contend on a line.
// Histograms are log-bucketed (HDR-style): `sub_bits` sub-buckets per power
// of two bound the relative quantile error by 2^-sub_bits (default 1/32 ≈
// 3.1%); values below 2^sub_bits are exact. Record in integer units
// (microseconds for latencies, counts for batch sizes).
//
// render_prometheus() emits the text exposition format: counters and gauges
// as single series, histograms as summaries (quantile="0.5/0.95/0.99/0.999"
// plus _sum and _count). Callback series (register_callback) are sampled at
// scrape time — the engine exposes live queue depth and its EngineStats
// counters this way without double-counting.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ascend::runtime::metrics {

/// Label set attached to one series, e.g. {{"variant","sc-lut"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Single seq_cst atomic: uncontended fetch_add is cheap
/// at request rates, and the total order lets scrape invariants hold (see
/// file comment).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n); }
  std::uint64_t value() const { return v_.load(); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value with set/add/set_max.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v); }
  void add(std::int64_t d) { v_.fetch_add(d); }
  /// Monotonic high-water mark (CAS loop); used for peak gauges.
  void set_max(std::int64_t v) {
    std::int64_t cur = v_.load();
    while (v > cur && !v_.compare_exchange_weak(cur, v)) {
    }
  }
  std::int64_t value() const { return v_.load(); }

 private:
  std::atomic<std::int64_t> v_{0};
};

struct HistogramOptions {
  /// Sub-buckets per power of two; relative quantile error <= 2^-sub_bits.
  int sub_bits = 5;
  /// Highest exactly-resolved exponent: values >= 2^max_exp clamp into the
  /// top bucket. 2^32 us ~= 71 minutes — far beyond any request latency.
  int max_exp = 32;
};

/// Merged point-in-time view of one histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;   ///< sum of recorded values (integer units)
  std::uint64_t max = 0;   ///< largest recorded value (exact)
  std::vector<std::uint64_t> buckets;
  HistogramOptions opts;

  /// q in [0,1]; returns the bucket-midpoint estimate of the q-quantile
  /// (relative error <= 2^-sub_bits by construction). 0 when empty.
  double quantile(double q) const;
  double mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }
};

/// Log-bucketed histogram with striped per-thread shards (see file comment).
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  /// Lock-free; safe from any thread. Values clamp to [0, 2^max_exp).
  void record(std::uint64_t value);

  HistogramSnapshot snapshot() const;

  /// Bucket geometry (pure functions of the options) — exposed for tests
  /// and for HistogramSnapshot::quantile.
  static int bucket_index(const HistogramOptions& opts, std::uint64_t value);
  static std::uint64_t bucket_lower(const HistogramOptions& opts, int idx);
  static int bucket_count(const HistogramOptions& opts);
  int num_buckets() const { return num_buckets_; }

 private:
  static constexpr int kShards = 8;  ///< power of two
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> count{0};
  };

  HistogramOptions opts_;
  int num_buckets_ = 0;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> max_{0};
};

/// What a callback series reports at scrape time.
enum class SeriesKind { kCounter, kGauge };

/// One rendered series in a typed registry snapshot.
struct SeriesSnapshot {
  std::string name;
  Labels labels;
  SeriesKind kind = SeriesKind::kGauge;
  double value = 0.0;
};

struct RegistrySnapshot {
  std::vector<SeriesSnapshot> series;                       ///< counters, gauges, callbacks
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;  ///< key: name{labels}
  /// Histogram snapshot by exact name+labels; nullptr when absent.
  const HistogramSnapshot* histogram(const std::string& name, const Labels& labels = {}) const;
};

/// Handle for unregistering a callback series (engine lifetime < registry
/// lifetime when the caller shares one registry across engines).
using CallbackId = std::uint64_t;

/// Registry of named metric families. Each (name, labels) pair is one
/// series; re-registering an existing series returns the same object.
/// Metric object addresses are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  // out of line: Family is an implementation detail

  Counter& counter(const std::string& name, Labels labels = {}, std::string help = "");
  Gauge& gauge(const std::string& name, Labels labels = {}, std::string help = "");
  Histogram& histogram(const std::string& name, Labels labels = {}, HistogramOptions opts = {},
                       std::string help = "");

  /// Scrape-time sampled series (live queue depth, engine stat atomics, ...).
  /// The callback must stay valid until remove_callback(id) or registry
  /// destruction.
  CallbackId register_callback(const std::string& name, Labels labels, SeriesKind kind,
                               std::function<double()> fn, std::string help = "");
  void remove_callback(CallbackId id);

  /// Prometheus text exposition format (counters/gauges as-is, histograms as
  /// summaries with p50/p95/p99/p99.9 quantiles + _sum/_count).
  std::string render_prometheus() const;

  RegistrySnapshot snapshot() const;

 private:
  struct Family;
  Family& family(const std::string& name, const char* type, std::string help);

  mutable std::mutex mu_;
  // Family order is registration order (stable golden output).
  std::vector<std::unique_ptr<Family>> families_;
  CallbackId next_callback_ = 1;
};

/// `name{a="x",b="y"}`; just `name` when the label set is empty.
std::string series_key(const std::string& name, const Labels& labels);

}  // namespace ascend::runtime::metrics
