#pragma once
// engine.h — model-agnostic batched inference engine.
//
// InferenceEngine serves every Servable published in a ModelRegistry from
// one priority/deadline-aware request queue: submit(payload, RequestOptions)
// routes a request to a named variant with a scheduling class and an
// optional deadline, the batcher groups compatible (same-variant) requests
// and serves interactive traffic first, and EngineOptions::concurrent_forwards
// worker threads each loop next_batch() -> Servable::infer, so the worker
// count bounds the forwards in flight. With two or more workers, the next
// group closes at once instead of sitting out max_delay while another
// worker still waits for work (the batcher's idle cutoff); a one-worker
// engine keeps the plain size/latency/deadline cutoffs.
// Requests whose deadline expires in the queue fail fast with
// DeadlineExceededError and never reach a forward. Variants hot-swap through
// ModelRegistry::publish without pausing the engine: each batch forward runs
// on the shared_ptr snapshot it grabbed.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/arena.h"
#include "runtime/batcher.h"
#include "runtime/metrics/registry.h"
#include "runtime/metrics/trace.h"
#include "runtime/registry.h"

namespace ascend::runtime {

/// Delivered through a request future when its batch forward overran
/// EngineOptions::forward_timeout: the watchdog failed the batch, stopped
/// counting it in flight and started a replacement worker; the engine keeps
/// serving. The wedged forward finishes (or not) in the background, its
/// late results are discarded, and its worker then exits.
struct WatchdogTimeoutError : std::runtime_error {
  WatchdogTimeoutError() : std::runtime_error("forward exceeded watchdog deadline") {}
};

struct EngineOptions {
  int max_batch = 32; ///< dynamic-batching size cutoff
  /// Dynamic-batching latency cutoff. With concurrent_forwards >= 2 a group
  /// does not wait it out while another worker waits for work (the
  /// batcher's idle cutoff).
  std::chrono::microseconds max_delay{2000};
  int concurrent_forwards = 2;  ///< forward worker threads (>= 1); see engine doc
  int max_pending = 0;          ///< bounded batcher queue; 0 = unbounded
  OverflowPolicy overflow = OverflowPolicy::kBlock;  ///< full-queue behaviour
  /// Variant served when RequestOptions::variant is empty. Empty: the
  /// registry's sole variant (construction throws if it holds several —
  /// a multi-variant engine must name its default).
  std::string default_variant;
  /// Metrics registry the engine publishes into (queue-wait / forward-time /
  /// end-to-end latency histograms per variant and priority, queue-depth and
  /// in-flight gauges, the EngineStats counters). Null: the engine creates a
  /// private registry, reachable via metrics(). A shared registry must
  /// outlive the engine; the engine unregisters its callback series on
  /// destruction.
  std::shared_ptr<metrics::MetricsRegistry> metrics;
  /// Per-request span tracing (off by default). When disabled the only
  /// per-span cost left in the forward path is a thread-local read.
  trace::TracerOptions trace;
  /// Watchdog deadline on an in-flight batch forward — the whole service
  /// attempt, retries and fallback included. A forward that overruns it has
  /// its unresolved requests failed with WatchdogTimeoutError, stops counting
  /// in flight, and a replacement worker starts; the engine keeps serving
  /// around the wedged thread. 0 = off.
  std::chrono::milliseconds forward_timeout{0};
};

/// Per-scheduling-class serving counters.
struct PriorityStats {
  std::uint64_t queued = 0;            ///< accepted into the request queue
  std::uint64_t served = 0;            ///< resolved with a Prediction
  std::uint64_t deadline_dropped = 0;  ///< failed fast with DeadlineExceededError
  std::uint64_t rejected = 0;          ///< QueueFullError / unknown variant at submit
  std::uint64_t retries = 0;           ///< extra primary-variant attempts spent
  std::uint64_t fallback_served = 0;   ///< requests degraded to their fallback variant
};

struct EngineStats {
  std::uint64_t images = 0;
  std::uint64_t batches = 0;        ///< batches dispatched via submit()
  std::uint64_t full_batches = 0;   ///< batches closed by the size cutoff
  std::uint64_t idle_batches = 0;   ///< partial batches closed by the idle cutoff
  std::uint64_t watchdog_trips = 0; ///< forwards abandoned past forward_timeout
  double total_queue_ms = 0.0;      ///< summed enqueue -> batch-close waits
  int max_batch_seen = 0;
  int max_in_flight = 0;            ///< peak concurrent batch forwards observed
  std::array<PriorityStats, kNumPriorities> by_priority;  ///< index by Priority

  double avg_batch() const { return batches ? static_cast<double>(images) / batches : 0.0; }
  double avg_queue_ms() const { return images ? total_queue_ms / images : 0.0; }
  const PriorityStats& priority(Priority p) const {
    return by_priority[static_cast<std::size_t>(p)];
  }
};

class InferenceEngine {
 public:
  /// Model-agnostic engine over a registry of servable variants. The
  /// registry stays caller-owned and live for hot-swaps while serving.
  explicit InferenceEngine(std::shared_ptr<ModelRegistry> registry, EngineOptions opts = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Async single-payload path through the priority batcher. On a full
  /// bounded queue this blocks or throws QueueFullError per
  /// EngineOptions::overflow; an unknown variant throws UnknownVariantError
  /// here, before queueing. A deadline that expires before the request's
  /// batch forward starts fails the future with DeadlineExceededError.
  std::future<Prediction> submit(std::vector<float> image, RequestOptions ropts = {});

  /// Consistent snapshot of the serving counters. Since the observability
  /// layer landed this is a *view* assembled from the same atomics that back
  /// the metrics registry — one code path, so a scrape and stats() can never
  /// disagree, and `served <= queued` holds per priority at any instant
  /// (each counter pair is updated in program order on seq_cst atomics).
  EngineStats stats() const;
  /// Metrics registry this engine publishes into (EngineOptions::metrics or
  /// the engine-private one).
  const std::shared_ptr<metrics::MetricsRegistry>& metrics() const { return metrics_; }
  /// Per-request trace retention (rings + slowest-N); enabled per
  /// EngineOptions::trace.
  const trace::Tracer& tracer() const { return tracer_; }
  /// Batch forwards running right now (live twin of EngineStats::max_in_flight).
  int in_flight() const { return in_flight_.load(); }
  /// Live queue depth, total and per priority (also exported as gauges).
  PendingCounts pending() const { return batcher_.pending_counts(); }
  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }
  const std::string& default_variant() const { return default_variant_; }
  int concurrent_forwards() const { return opts_.concurrent_forwards; }

 private:
  /// One in-flight batch forward. Owns the requests' promises through a
  /// per-row claim protocol: whoever wins claim(r) — the worker resolving
  /// the row or the watchdog abandoning it — is the only writer of that
  /// promise.
  struct BatchJob {
    explicit BatchJob(std::vector<Request> b);

    /// True when the caller won ownership of row r's promise.
    bool claim(std::size_t r) { return !claimed[r].exchange(true); }
    void fail_unresolved(const std::exception_ptr& err);

    std::vector<Request> batch;
    std::unique_ptr<std::atomic<bool>[]> claimed;  ///< per-row promise ownership
    /// Set by the watchdog when it abandons this forward: the worker must
    /// not touch metrics or promises past the next check (its rows were
    /// already failed; late results are discarded).
    std::atomic<bool> abandoned{false};
    std::chrono::steady_clock::time_point started{};  ///< set before flight registration
  };

  void start();
  /// Starts one forward worker (caller holds watch_mu_, or no other thread
  /// runs yet).
  void start_worker();
  void worker_loop();
  void process_batch(BatchJob& job);
  void watchdog_loop();
  void register_flight(const std::shared_ptr<BatchJob>& job);
  /// False when the watchdog already abandoned `job` (and took over its
  /// in-flight count); true when the caller still owns it.
  bool unregister_flight(const BatchJob* job);
  const std::string& resolve_variant(const std::string& requested) const;
  void count_drop(Priority p);
  void register_metric_series();

  EngineOptions opts_;
  Batcher batcher_;

  // Serving counters. Plain seq_cst atomics, updated in program order per
  // request (queued strictly before served/deadline_dropped), so any reader
  // — stats() or a metrics scrape, which both read these — observes
  // `served + deadline_dropped <= queued` per priority.
  struct AtomicPriorityStats {
    std::atomic<std::uint64_t> queued{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> deadline_dropped{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> fallback_served{0};
  };
  std::array<AtomicPriorityStats, kNumPriorities> pstats_;
  std::atomic<std::uint64_t> images_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> full_batches_{0};
  std::atomic<std::uint64_t> watchdog_trips_{0};
  std::atomic<std::uint64_t> queue_wait_ns_{0};
  std::atomic<int> max_batch_seen_{0};
  std::atomic<int> max_in_flight_{0};

  // Observability: the registry the series live in, cached hot-path handles
  // (per-priority queue-wait histograms, batch fill), and the trace store.
  // Per-variant histograms are resolved lazily per batch (registration is
  // idempotent and amortised over the whole batch).
  std::shared_ptr<metrics::MetricsRegistry> metrics_;
  std::array<metrics::Histogram*, kNumPriorities> queue_wait_hist_{};
  metrics::Histogram* batch_fill_hist_ = nullptr;
  std::vector<metrics::CallbackId> metric_callbacks_;
  trace::Tracer tracer_;

  // Batches taken from the batcher whose forward has not ended (or been
  // abandoned by the watchdog). Incremented under the batcher's queue lock
  // as the batch leaves the queue (its take observer), so pending() and
  // in_flight() never both miss a batch; atomic for lock-free reads.
  std::atomic<int> in_flight_{0};

  // Watchdog (EngineOptions::forward_timeout > 0): the flight list of
  // running BatchJobs, scanned by a poller thread that abandons overdue
  // forwards. Jobs register on forward start and unregister on completion.
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::vector<std::shared_ptr<BatchJob>> flights_;  ///< under watch_mu_
  bool watch_stop_ = false;                         ///< under watch_mu_
  std::thread watchdog_;

  std::shared_ptr<ModelRegistry> registry_;
  std::string default_variant_;

  /// Warm per-forward activation arenas, one per in-flight forward, leased
  /// around each Servable::infer by process_batch: every intermediate
  /// tensor bump-allocates from the leased slab, so a steady-state forward
  /// makes no heap allocations.
  ArenaPool arenas_;

  /// The forward workers, replacements for abandoned ones included: each
  /// loops next_batch() -> forward until the batcher closes. Under
  /// watch_mu_ (the watchdog appends replacements).
  std::vector<std::thread> workers_;
};

}  // namespace ascend::runtime
