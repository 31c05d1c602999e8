#include "runtime/metrics/registry.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace ascend::runtime::metrics {

namespace {

/// Stable per-thread shard index. Threads stripe round-robin, so up to
/// kShards concurrent recorders never share a cache line.
int tls_shard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(idx);
}

void append_labels(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
}

/// Like append_labels but with extra pairs appended (quantile="...").
void append_labels_extra(std::string& out, const Labels& labels, const char* key,
                         const char* value) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  if (!first) out += ',';
  out += key;
  out += "=\"";
  out += value;
  out += '"';
  out += '}';
}

std::string format_double(double v) {
  char buf[64];
  // %.17g round-trips but is noisy; %g keeps integers exact up to 2^53-ish
  // precision loss only in the last digits of huge sums.
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_count(const HistogramOptions& opts) {
  // Values < 2^sub_bits land in their own exact bucket (index == value);
  // every octave [2^e, 2^(e+1)) above splits into 2^sub_bits sub-buckets.
  // One extra bucket catches clamped values >= 2^max_exp.
  return ((opts.max_exp - opts.sub_bits + 1) << opts.sub_bits) + 1;
}

Histogram::Histogram(HistogramOptions opts) : opts_(opts) {
  if (opts_.sub_bits < 1 || opts_.sub_bits > 16)
    throw std::invalid_argument("Histogram: sub_bits must be in [1,16]");
  if (opts_.max_exp <= opts_.sub_bits || opts_.max_exp > 62)
    throw std::invalid_argument("Histogram: max_exp must be in (sub_bits,62]");
  num_buckets_ = bucket_count(opts_);
  for (Shard& s : shards_) {
    s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(num_buckets_));
    for (int i = 0; i < num_buckets_; ++i) s.buckets[static_cast<std::size_t>(i)].store(0);
  }
}

int Histogram::bucket_index(const HistogramOptions& opts, std::uint64_t value) {
  if (value < (1ull << opts.sub_bits)) return static_cast<int>(value);
  if (value >= (1ull << opts.max_exp)) return bucket_count(opts) - 1;
  const int e = std::bit_width(value) - 1;  // floor(log2(value))
  const int shift = e - opts.sub_bits;
  const auto sub = static_cast<int>((value >> shift) & ((1ull << opts.sub_bits) - 1));
  return ((e - opts.sub_bits + 1) << opts.sub_bits) + sub;
}

std::uint64_t Histogram::bucket_lower(const HistogramOptions& opts, int idx) {
  if (idx < (1 << opts.sub_bits)) return static_cast<std::uint64_t>(idx);
  if (idx >= bucket_count(opts) - 1) return 1ull << opts.max_exp;
  const int e = (idx >> opts.sub_bits) + opts.sub_bits - 1;
  const int sub = idx & ((1 << opts.sub_bits) - 1);
  const int shift = e - opts.sub_bits;
  return (1ull << e) + (static_cast<std::uint64_t>(sub) << shift);
}

void Histogram::record(std::uint64_t value) {
  Shard& s = shards_[static_cast<std::size_t>(tls_shard()) & (kShards - 1)];
  s.buckets[static_cast<std::size_t>(bucket_index(opts_, value))].fetch_add(
      1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = max_.load(std::memory_order_relaxed);
  while (value > cur && !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.opts = opts_;
  snap.buckets.assign(static_cast<std::size_t>(num_buckets_), 0);
  for (const Shard& s : shards_) {
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.count += s.count.load(std::memory_order_relaxed);
    for (int i = 0; i < num_buckets_; ++i)
      snap.buckets[static_cast<std::size_t>(i)] +=
          s.buckets[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation among `count` sorted samples.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // The clamp bucket has no meaningful upper bound; report the exact max.
      if (i + 1 == buckets.size()) return static_cast<double>(max);
      const std::uint64_t lo = Histogram::bucket_lower(opts, static_cast<int>(i));
      const std::uint64_t hi = i + 1 < buckets.size()
                                   ? Histogram::bucket_lower(opts, static_cast<int>(i) + 1)
                                   : lo + 1;
      // Midpoint of the bucket: bounds the relative error by half the
      // bucket's relative width (<= 2^-sub_bits).
      return 0.5 * (static_cast<double>(lo) + static_cast<double>(hi - 1));
    }
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Family {
  std::string name;
  const char* type;  // "counter" | "gauge" | "summary"
  std::string help;
  struct CounterSeries {
    Labels labels;
    std::unique_ptr<Counter> metric;
  };
  struct GaugeSeries {
    Labels labels;
    std::unique_ptr<Gauge> metric;
  };
  struct HistSeries {
    Labels labels;
    std::unique_ptr<Histogram> metric;
  };
  struct CallbackSeries {
    Labels labels;
    SeriesKind kind;
    std::function<double()> fn;
    CallbackId id;
  };
  std::vector<CounterSeries> counters;
  std::vector<GaugeSeries> gauges;
  std::vector<HistSeries> hists;
  std::vector<CallbackSeries> callbacks;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name, const char* type,
                                                 std::string help) {
  for (auto& f : families_) {
    if (f->name == name) {
      if (std::string(f->type) != type)
        throw std::invalid_argument("MetricsRegistry: metric '" + name +
                                    "' re-registered with a different type");
      if (f->help.empty()) f->help = std::move(help);
      return *f;
    }
  }
  auto f = std::make_unique<Family>();
  f->name = name;
  f->type = type;
  f->help = std::move(help);
  families_.push_back(std::move(f));
  return *families_.back();
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, "counter", std::move(help));
  for (auto& s : f.counters)
    if (s.labels == labels) return *s.metric;
  f.counters.push_back({std::move(labels), std::make_unique<Counter>()});
  return *f.counters.back().metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, "gauge", std::move(help));
  for (auto& s : f.gauges)
    if (s.labels == labels) return *s.metric;
  f.gauges.push_back({std::move(labels), std::make_unique<Gauge>()});
  return *f.gauges.back().metric;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      HistogramOptions opts, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, "summary", std::move(help));
  for (auto& s : f.hists)
    if (s.labels == labels) return *s.metric;
  f.hists.push_back({std::move(labels), std::make_unique<Histogram>(opts)});
  return *f.hists.back().metric;
}

CallbackId MetricsRegistry::register_callback(const std::string& name, Labels labels,
                                              SeriesKind kind, std::function<double()> fn,
                                              std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, kind == SeriesKind::kCounter ? "counter" : "gauge", std::move(help));
  const CallbackId id = next_callback_++;
  f.callbacks.push_back({std::move(labels), kind, std::move(fn), id});
  return id;
}

void MetricsRegistry::remove_callback(CallbackId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& f : families_) {
    auto& cbs = f->callbacks;
    cbs.erase(std::remove_if(cbs.begin(), cbs.end(),
                             [id](const Family::CallbackSeries& s) { return s.id == id; }),
              cbs.end());
  }
}

std::string series_key(const std::string& name, const Labels& labels) {
  std::string out = name;
  append_labels(out, labels);
  return out;
}

// A scrape holds mu_ only to read the scalar series and copy the histogram
// handles: merging and formatting the histograms — the bulk of a scrape —
// runs unlocked, so it never holds off the serving path's histogram lookups.
// Histograms live as long as the registry. Callback series stay under the
// lock: their owners remove them under it before dying.

std::string MetricsRegistry::render_prometheus() const {
  static constexpr std::pair<double, const char*> kQuantiles[] = {
      {0.50, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}, {0.999, "0.999"}};
  struct FamilyText {
    std::string name;
    std::string head;  ///< HELP/TYPE lines plus the counter, gauge and callback series
    std::vector<std::pair<Labels, const Histogram*>> hists;
  };
  std::vector<FamilyText> families;
  {
    std::lock_guard<std::mutex> lock(mu_);
    families.reserve(families_.size());
    for (const auto& f : families_) {
      FamilyText& ft = families.emplace_back();
      ft.name = f->name;
      std::string& out = ft.head;
      if (!f->help.empty()) out += "# HELP " + f->name + " " + f->help + "\n";
      out += "# TYPE " + f->name + " " + f->type + "\n";
      for (const auto& s : f->counters) {
        out += f->name;
        append_labels(out, s.labels);
        out += ' ' + std::to_string(s.metric->value()) + '\n';
      }
      for (const auto& s : f->gauges) {
        out += f->name;
        append_labels(out, s.labels);
        out += ' ' + std::to_string(s.metric->value()) + '\n';
      }
      for (const auto& s : f->callbacks) {
        out += f->name;
        append_labels(out, s.labels);
        out += ' ' + format_double(s.fn()) + '\n';
      }
      for (const auto& s : f->hists) ft.hists.emplace_back(s.labels, s.metric.get());
    }
  }
  std::string out;
  for (const FamilyText& ft : families) {
    out += ft.head;
    const std::string& name = ft.name;
    for (const auto& [labels, hist] : ft.hists) {
      const HistogramSnapshot snap = hist->snapshot();
      for (const auto& [q, qname] : kQuantiles) {
        out += name;
        append_labels_extra(out, labels, "quantile", qname);
        out += ' ' + format_double(snap.quantile(q)) + '\n';
      }
      out += name + "_sum";
      append_labels(out, labels);
      out += ' ' + std::to_string(snap.sum) + '\n';
      out += name + "_count";
      append_labels(out, labels);
      out += ' ' + std::to_string(snap.count) + '\n';
    }
  }
  return out;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  std::vector<const Histogram*> hists;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& f : families_) {
      for (const auto& s : f->counters)
        snap.series.push_back(
            {f->name, s.labels, SeriesKind::kCounter, static_cast<double>(s.metric->value())});
      for (const auto& s : f->gauges)
        snap.series.push_back(
            {f->name, s.labels, SeriesKind::kGauge, static_cast<double>(s.metric->value())});
      for (const auto& s : f->callbacks)
        snap.series.push_back({f->name, s.labels, s.kind, s.fn()});
      for (const auto& s : f->hists) {
        snap.histograms.emplace_back(series_key(f->name, s.labels), HistogramSnapshot{});
        hists.push_back(s.metric.get());
      }
    }
  }
  for (std::size_t i = 0; i < hists.size(); ++i) snap.histograms[i].second = hists[i]->snapshot();
  return snap;
}

const HistogramSnapshot* RegistrySnapshot::histogram(const std::string& name,
                                                     const Labels& labels) const {
  const std::string key = series_key(name, labels);
  for (const auto& [k, h] : histograms)
    if (k == key) return &h;
  return nullptr;
}

}  // namespace ascend::runtime::metrics
