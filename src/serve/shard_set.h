#pragma once
// shard_set.h — N InferenceEngine shards behind one router.
//
// A ShardSet scales the single-process serving core horizontally inside one
// process: each shard owns its own ModelRegistry, InferenceEngine (and with
// it a private batcher, forward workers and activation arenas), so shards share
// nothing on the request path and a wedged or draining shard never stalls
// the others. The router shards by variant first — only shards whose
// registry holds the requested variant are eligible — then picks the
// least-loaded eligible shard by live queue depth + in-flight forwards (the
// same signals the metrics gauges export, so the router and a Prometheus
// scrape always agree on "loaded").
//
// Admission control converts overload into typed back-pressure instead of
// blocking the caller (the accept loop, in the network front door): when
// every eligible shard sits above the queue watermark, submit() throws
// RetryAfterError carrying a client backoff hint; the shard engines
// themselves run bounded queues with OverflowPolicy::kReject, so a race past
// the watermark check still rejects rather than blocks.
//
// Coordinated operations mirror the c10d broadcast-to-all-ranks idiom from
// the related torch/caffe2 process-group code: publish_all() validates one
// candidate per shard against that shard's incumbent (canary forward on the
// publishing thread) and only when *every* shard accepted does it commit the
// swap — a rejected canary on any shard leaves all shards on their incumbent
// generation. drain(shard)/readmit(shard) support rolling weight pushes:
// stop admitting, flush in-flight work, swap, readmit — traffic keeps
// flowing through the other shards, and rolling_publish() packages the whole
// sequence.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/metrics/registry.h"
#include "runtime/registry.h"

namespace ascend::serve {

/// Thrown by ShardSet::submit when admission control rejects the request:
/// every eligible shard is past the queue watermark (or drained). The client
/// should back off for `retry_after` and resubmit.
struct RetryAfterError : std::runtime_error {
  explicit RetryAfterError(std::chrono::milliseconds ra)
      : std::runtime_error("admission control: all eligible shards over watermark"),
        retry_after(ra) {}
  std::chrono::milliseconds retry_after;
};

struct ShardSetOptions {
  int shards = 2;  ///< engine shards (>= 1)
  /// Per-shard engine template. `max_pending` must be > 0 and `overflow`
  /// is forced to kReject: a sharded front door must never block its
  /// submitter. `metrics` is ignored (each shard engine keeps a private
  /// registry; the ShardSet exports per-shard series into its own).
  runtime::EngineOptions engine;
  /// Admission watermark as a fraction of `engine.max_pending`: a shard
  /// whose live queue depth is at or above watermark * max_pending is not
  /// admitting. When no eligible shard admits, submit() rejects.
  double admit_watermark = 0.75;
  /// Backoff hint carried by RetryAfterError / kRetryAfter responses.
  std::chrono::milliseconds retry_after{25};
  /// Registry for the shard-set series (per-shard queue depth/in-flight
  /// gauges, admitted/rejected counters). Null: a private registry,
  /// reachable via metrics().
  std::shared_ptr<runtime::metrics::MetricsRegistry> metrics;
};

/// Builds one servable candidate per shard (shards never share a servable:
/// each owns its own snapshots, pools and — for mmap'd weights — mapping).
using ServableFactory = std::function<std::shared_ptr<runtime::Servable>(int shard)>;

/// Seeds shard `shard`'s registry with its initial variants, before the
/// shard's engine starts (an InferenceEngine requires a non-empty registry).
using ShardBootstrap = std::function<void(int shard, runtime::ModelRegistry& registry)>;

/// Outcome of a coordinated publish across all shards.
struct PublishAllResult {
  bool published = false;
  int failed_shard = -1;  ///< shard whose canary rejected; -1 on success
  std::string error;      ///< rejection reason; empty on success
  /// Per-shard generation after the call. On a rejection: the incumbent's
  /// generation on each shard whose candidate was built, 0 on the rest.
  std::vector<std::uint64_t> generations;
};

class ShardSet {
 public:
  /// Construct `opts.shards` shards, seed each registry via `bootstrap`,
  /// then start each shard's engine (with opts.engine as the template).
  ShardSet(const ShardBootstrap& bootstrap, ShardSetOptions opts);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Route to the least-loaded admitting shard holding the variant and
  /// enqueue there. Throws RetryAfterError on admission reject (including a
  /// race into a full shard queue), UnknownVariantError when no shard holds
  /// the variant; engine-typed errors (deadline, shutdown) pass through the
  /// future. Returns the shard index alongside the future.
  struct Ticket {
    std::future<runtime::Prediction> future;
    int shard = -1;
  };
  Ticket submit(std::vector<float> payload, runtime::RequestOptions ropts);

  /// Coordinated hot-swap: build one candidate per shard, canary-validate
  /// each against its shard's incumbent, and only publish — on every shard —
  /// when all canaries passed. All-or-nothing: a rejected canary (or a
  /// factory/validation error) leaves every shard's generation unchanged and
  /// counts one rollback on the rejecting shard's registry. `canary` null
  /// publishes unchecked (still all-or-nothing on factory errors).
  PublishAllResult publish_all(const ServableFactory& make,
                               const runtime::CanaryOptions* canary);

  /// Stop routing to `shard` and block until its queue and in-flight
  /// forwards have flushed. Requests keep flowing to the other shards.
  void drain(int shard);
  /// Resume routing to a drained shard.
  void readmit(int shard);
  bool admitting(int shard) const;

  /// Rolling weight push: canary-validate every shard's candidate up front
  /// (all-or-nothing, like publish_all), then per shard: drain -> publish ->
  /// readmit. Live traffic drains around each shard in turn; at every
  /// instant at least shards()-1 shards serve.
  PublishAllResult rolling_publish(const ServableFactory& make,
                                   const runtime::CanaryOptions* canary);

  /// Shard accessors (engine lifetime == ShardSet lifetime).
  runtime::InferenceEngine& engine(int shard);
  const std::shared_ptr<runtime::ModelRegistry>& registry(int shard) const;

  /// Live load score the router minimizes: queue depth + in-flight forwards.
  int load(int shard) const;

  /// Requests admitted / rejected by admission control across all shards.
  std::uint64_t admitted() const { return admitted_.load(); }
  std::uint64_t rejected() const { return rejected_.load(); }

  const std::shared_ptr<runtime::metrics::MetricsRegistry>& metrics() const { return metrics_; }
  const ShardSetOptions& options() const { return opts_; }

 private:
  struct Shard {
    std::shared_ptr<runtime::ModelRegistry> registry;
    std::unique_ptr<runtime::InferenceEngine> engine;
    std::atomic<bool> admitting{true};
  };

  void register_metric_series();
  /// Build every shard's candidate and canary-validate it against that
  /// shard's incumbent. On the first failure: counts one rollback on that
  /// shard, fills result.failed_shard and result.error, reports the live
  /// generation of every candidate built so far, and stops.
  std::vector<std::shared_ptr<runtime::Servable>> build_candidates(
      const ServableFactory& make, const runtime::CanaryOptions* canary,
      PublishAllResult& result);

  ShardSetOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::shared_ptr<runtime::metrics::MetricsRegistry> metrics_;
  std::vector<runtime::metrics::CallbackId> metric_callbacks_;
};

}  // namespace ascend::serve
