#include "serve/shard_set.h"

#include <stdexcept>
#include <thread>

#include "runtime/failpoint.h"

namespace ascend::serve {

using runtime::InferenceEngine;
using runtime::ModelRegistry;

namespace failpoint = runtime::failpoint;

namespace {

failpoint::Site fp_route{"router.route"};

}  // namespace

ShardSet::ShardSet(const ShardBootstrap& bootstrap, ShardSetOptions opts) : opts_(std::move(opts)) {
  if (opts_.shards < 1) throw std::invalid_argument("ShardSet: shards must be >= 1");
  if (!bootstrap) throw std::invalid_argument("ShardSet: null bootstrap");
  if (opts_.engine.max_pending <= 0)
    throw std::invalid_argument("ShardSet: engine.max_pending must be bounded (> 0)");
  if (opts_.admit_watermark <= 0.0 || opts_.admit_watermark > 1.0)
    throw std::invalid_argument("ShardSet: admit_watermark must be in (0, 1]");
  // A sharded front door must never block its submitter: the shard queues
  // reject on overflow regardless of what the template asked for.
  opts_.engine.overflow = runtime::OverflowPolicy::kReject;
  opts_.engine.metrics = nullptr;  // each shard engine keeps a private registry
  metrics_ = opts_.metrics ? opts_.metrics
                           : std::make_shared<runtime::metrics::MetricsRegistry>();
  shards_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int s = 0; s < opts_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->registry = std::make_shared<ModelRegistry>();
    bootstrap(s, *shard->registry);
    shard->engine = std::make_unique<InferenceEngine>(shard->registry, opts_.engine);
    shards_.push_back(std::move(shard));
  }
  register_metric_series();
}

ShardSet::~ShardSet() {
  for (const runtime::metrics::CallbackId id : metric_callbacks_) metrics_->remove_callback(id);
}

void ShardSet::register_metric_series() {
  using runtime::metrics::Labels;
  using runtime::metrics::SeriesKind;
  for (int s = 0; s < shards(); ++s) {
    const Labels labels{{"shard", std::to_string(s)}};
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_shard_queue_depth", labels, SeriesKind::kGauge,
        [&sh] { return static_cast<double>(sh.engine->pending().total); },
        "Live scheduler queue depth of one engine shard"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_shard_in_flight", labels, SeriesKind::kGauge,
        [&sh] { return static_cast<double>(sh.engine->in_flight()); },
        "Batch forwards running on one engine shard right now"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_shard_admitting", labels, SeriesKind::kGauge,
        [&sh] { return sh.admitting.load() ? 1.0 : 0.0; },
        "Whether the router admits new requests to this shard (0 = draining)"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_shard_images_served_total", labels, SeriesKind::kCounter,
        [&sh] { return static_cast<double>(sh.engine->stats().images); },
        "Images served by this shard"));
  }
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_router_admitted_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(admitted_.load()); },
      "Requests the router admitted to a shard"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_router_rejected_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(rejected_.load()); },
      "Requests admission control rejected with retry-after"));
}

InferenceEngine& ShardSet::engine(int shard) {
  return *shards_.at(static_cast<std::size_t>(shard))->engine;
}

const std::shared_ptr<ModelRegistry>& ShardSet::registry(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->registry;
}

int ShardSet::load(int shard) const {
  const Shard& sh = *shards_.at(static_cast<std::size_t>(shard));
  return static_cast<int>(sh.engine->pending().total) + sh.engine->in_flight();
}

bool ShardSet::admitting(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->admitting.load();
}

ShardSet::Ticket ShardSet::submit(std::vector<float> payload, runtime::RequestOptions ropts) {
  ASCEND_FAILPOINT(fp_route);
  const std::string& variant =
      ropts.variant.empty() ? opts_.engine.default_variant : ropts.variant;
  // Shard by variant, then least-loaded among the admitting holders. The
  // watermark is applied to the chosen shard: when even the least-loaded
  // holder is over it, the whole variant is overloaded and the request is
  // shed with a backoff hint instead of parked.
  const int watermark =
      static_cast<int>(opts_.admit_watermark * static_cast<double>(opts_.engine.max_pending));
  int best = -1;
  int best_load = 0;
  bool variant_exists = false;
  for (int s = 0; s < shards(); ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    if (!sh.registry->contains(variant)) continue;
    variant_exists = true;
    if (!sh.admitting.load()) continue;
    const int l = load(s);
    if (best < 0 || l < best_load) {
      best = s;
      best_load = l;
    }
  }
  if (!variant_exists) throw runtime::UnknownVariantError(variant);
  if (best < 0 ||
      static_cast<int>(shards_[static_cast<std::size_t>(best)]->engine->pending().total) >=
          std::max(watermark, 1)) {
    // All holders draining, or the least-loaded holder is past the
    // watermark: shed. (Draining every holder of a variant at once is an
    // operator error; the shed keeps it transient for clients.)
    rejected_.fetch_add(1);
    throw RetryAfterError(opts_.retry_after);
  }
  try {
    Ticket t;
    t.future = shards_[static_cast<std::size_t>(best)]->engine->submit(std::move(payload),
                                                                       std::move(ropts));
    t.shard = best;
    admitted_.fetch_add(1);
    return t;
  } catch (const runtime::QueueFullError&) {
    // Raced past the watermark into a full bounded queue: same contract as
    // an admission reject — typed back-pressure, never a block.
    rejected_.fetch_add(1);
    throw RetryAfterError(opts_.retry_after);
  }
}

std::vector<std::shared_ptr<runtime::Servable>> ShardSet::build_candidates(
    const ServableFactory& make, const runtime::CanaryOptions* canary,
    PublishAllResult& result) {
  result.generations.assign(static_cast<std::size_t>(shards()), 0);
  std::vector<std::shared_ptr<runtime::Servable>> candidates(
      static_cast<std::size_t>(shards()));
  for (int s = 0; s < shards(); ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    auto& cand = candidates[static_cast<std::size_t>(s)];
    try {
      cand = make(s);
      if (!cand) throw std::invalid_argument("ShardSet: factory returned null");
      if (canary) sh.registry->validate(*cand, *canary);
    } catch (const std::exception& e) {
      sh.registry->count_rollback();
      result.failed_shard = s;
      result.error = e.what();
      for (int i = 0; i <= s; ++i) {
        const auto& built = candidates[static_cast<std::size_t>(i)];
        if (built)
          result.generations[static_cast<std::size_t>(i)] =
              shards_[static_cast<std::size_t>(i)]->registry->generation(built->variant_id());
      }
      return candidates;
    }
  }
  return candidates;
}

PublishAllResult ShardSet::publish_all(const ServableFactory& make,
                                       const runtime::CanaryOptions* canary) {
  PublishAllResult result;
  // Phase 1 — build and validate every shard's candidate before any shard
  // swaps. A rejection here leaves every generation untouched: this is the
  // broadcast-to-all-ranks idiom with a validate barrier in front of the
  // commit, so a half-published fleet cannot exist.
  auto candidates = build_candidates(make, canary, result);
  if (result.failed_shard >= 0) return result;
  // Phase 2 — commit on every shard. publish() only throws for null/unnamed
  // servables (checked above) or an armed registry.publish fail point; the
  // latter deliberately models a torn broadcast and propagates.
  for (int s = 0; s < shards(); ++s) {
    result.generations[static_cast<std::size_t>(s)] =
        shards_[static_cast<std::size_t>(s)]->registry->publish(
            std::move(candidates[static_cast<std::size_t>(s)]));
  }
  result.published = true;
  return result;
}

void ShardSet::drain(int shard) {
  Shard& sh = *shards_.at(static_cast<std::size_t>(shard));
  sh.admitting.store(false);
  // Flush: wait out the queue and the in-flight forwards. Poll-based — the
  // queue only ever shrinks once routing stopped (deadline drops included),
  // so this terminates as fast as the shard serves. Read the queue first:
  // the engine counts a batch in flight under the queue lock as it leaves
  // the queue, so no batch slips between the two reads.
  while (sh.engine->pending().total > 0 || sh.engine->in_flight() > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

void ShardSet::readmit(int shard) {
  shards_.at(static_cast<std::size_t>(shard))->admitting.store(true);
}

PublishAllResult ShardSet::rolling_publish(const ServableFactory& make,
                                           const runtime::CanaryOptions* canary) {
  PublishAllResult result;
  // Validate everything up front (all-or-nothing, as in publish_all)...
  auto candidates = build_candidates(make, canary, result);
  if (result.failed_shard >= 0) return result;
  // ...then roll shard by shard: drain -> swap -> readmit. At least
  // shards()-1 shards admit at every instant.
  for (int s = 0; s < shards(); ++s) {
    drain(s);
    result.generations[static_cast<std::size_t>(s)] =
        shards_[static_cast<std::size_t>(s)]->registry->publish(
            std::move(candidates[static_cast<std::size_t>(s)]));
    readmit(s);
  }
  result.published = true;
  return result;
}

}  // namespace ascend::serve
