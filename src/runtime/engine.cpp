#include "runtime/engine.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "runtime/alloc_count.h"
#include "runtime/failpoint.h"

namespace ascend::runtime {

using nn::Tensor;

namespace {

failpoint::Site fp_infer{"engine.infer"};

int argmax_row(const Tensor& logits, int r) {
  int best = 0;
  for (int c = 1; c < logits.dim(1); ++c)
    if (logits.at(r, c) > logits.at(r, best)) best = c;
  return best;
}

void atomic_max(std::atomic<int>& target, int v) {
  int cur = target.load();
  while (v > cur && !target.compare_exchange_weak(cur, v)) {
  }
}

std::uint64_t usec_between(std::chrono::steady_clock::time_point a,
                           std::chrono::steady_clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<ModelRegistry> registry, EngineOptions opts)
    : opts_(opts),
      batcher_(opts.max_batch, opts.max_delay, opts.max_pending, opts.overflow),
      tracer_(opts.trace),
      registry_(std::move(registry)) {
  if (!registry_) throw std::invalid_argument("InferenceEngine: null registry");
  if (opts_.default_variant.empty()) {
    const std::vector<std::string> ids = registry_->variant_ids();
    if (ids.empty())
      throw std::invalid_argument("InferenceEngine: registry holds no variants");
    if (ids.size() > 1)
      throw std::invalid_argument(
          "InferenceEngine: multi-variant registry needs EngineOptions::default_variant");
    default_variant_ = ids.front();
  } else {
    if (!registry_->contains(opts_.default_variant))
      throw UnknownVariantError(opts_.default_variant);
    default_variant_ = opts_.default_variant;
  }
  start();
}

void InferenceEngine::start() {
  if (opts_.concurrent_forwards < 1) opts_.concurrent_forwards = 1;
  metrics_ = opts_.metrics ? opts_.metrics : std::make_shared<metrics::MetricsRegistry>();
  register_metric_series();
  batcher_.set_drop_observer([this](Priority p) { count_drop(p); });
  batcher_.set_take_observer([this] { atomic_max(max_in_flight_, in_flight_.fetch_add(1) + 1); });
  if (opts_.forward_timeout.count() > 0) watchdog_ = std::thread([this] { watchdog_loop(); });
  for (int i = 0; i < opts_.concurrent_forwards; ++i) start_worker();
}

void InferenceEngine::start_worker() {
  workers_.emplace_back([this] { worker_loop(); });
}

void InferenceEngine::register_metric_series() {
  using metrics::Labels;
  using metrics::SeriesKind;
  for (int p = 0; p < kNumPriorities; ++p) {
    const auto pr = static_cast<Priority>(p);
    const Labels labels{{"priority", priority_name(pr)}};
    AtomicPriorityStats& ps = pstats_[static_cast<std::size_t>(p)];
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_requests_queued_total", labels, SeriesKind::kCounter,
        [&ps] { return static_cast<double>(ps.queued.load()); },
        "Requests accepted into the scheduler queue"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_requests_served_total", labels, SeriesKind::kCounter,
        [&ps] { return static_cast<double>(ps.served.load()); },
        "Requests resolved with a Prediction"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_requests_deadline_dropped_total", labels, SeriesKind::kCounter,
        [&ps] { return static_cast<double>(ps.deadline_dropped.load()); },
        "Requests failed fast with DeadlineExceededError"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_requests_rejected_total", labels, SeriesKind::kCounter,
        [&ps] { return static_cast<double>(ps.rejected.load()); },
        "Requests rejected at submit (queue full / unknown variant)"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_retries_total", labels, SeriesKind::kCounter,
        [&ps] { return static_cast<double>(ps.retries.load()); },
        "Extra primary-variant forward attempts spent on failed forwards"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_fallback_reroutes_total", labels, SeriesKind::kCounter,
        [&ps] { return static_cast<double>(ps.fallback_served.load()); },
        "Requests degraded to their RetryPolicy fallback variant"));
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_queue_depth", labels, SeriesKind::kGauge,
        [this, pr] { return static_cast<double>(batcher_.pending(pr)); },
        "Live scheduler queue depth"));
    queue_wait_hist_[static_cast<std::size_t>(p)] =
        &metrics_->histogram("ascend_queue_wait_usec", labels, {},
                             "Enqueue to batch-close wait per served request");
  }
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_queue_depth_total", {}, SeriesKind::kGauge,
      [this] { return static_cast<double>(batcher_.pending()); },
      "Live scheduler queue depth across all priorities"));
  // Per-variant depth, surfacing Batcher::pending_counts().by_variant. One
  // gauge per variant registered at engine start; a variant published later
  // is still counted in by_variant but only scraped once an engine restart
  // (or a ShardSet rebuild) re-registers the series.
  for (const std::string& variant : registry_->variant_ids()) {
    metric_callbacks_.push_back(metrics_->register_callback(
        "ascend_queue_depth", Labels{{"variant", variant}}, SeriesKind::kGauge,
        [this, variant] { return static_cast<double>(batcher_.pending_counts().variant(variant)); },
        "Live scheduler queue depth"));
  }
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_in_flight_forwards", {}, SeriesKind::kGauge,
      [this] { return static_cast<double>(in_flight_.load()); },
      "Batch forwards running right now"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_peak_in_flight_forwards", {}, SeriesKind::kGauge,
      [this] { return static_cast<double>(max_in_flight_.load()); },
      "Peak concurrent batch forwards observed"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_images_served_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(images_.load()); }, "Images served via submit()"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_batches_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(batches_.load()); }, "Batches dispatched"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_full_batches_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(full_batches_.load()); },
      "Batches closed by the size cutoff"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_idle_batches_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(batcher_.idle_closes()); },
      "Partial batches closed at once: another forward worker waited and stayed free"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_process_allocations_total", {}, SeriesKind::kCounter,
      [] { return static_cast<double>(alloc_count()); },
      "Heap allocations seen by the interposed operator new (stays 0 unless "
      "the alloc_interpose library is linked into this binary)"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_arena_pool_created", {}, SeriesKind::kGauge,
      [this] { return static_cast<double>(arenas_.created()); },
      "Activation arenas created by this engine's pool (bounded by peak "
      "concurrent forwards)"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_watchdog_trips_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(watchdog_trips_.load()); },
      "In-flight forwards abandoned past EngineOptions::forward_timeout"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_registry_publishes_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(registry_->publishes()); },
      "Successful variant publishes (plain and canary-checked)"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_registry_rollbacks_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(registry_->rollbacks()); },
      "Rejected supervised publishes (incumbent kept serving)"));
  metric_callbacks_.push_back(metrics_->register_callback(
      "ascend_failpoint_fires_total", {}, SeriesKind::kCounter,
      [] { return static_cast<double>(failpoint::total_fires()); },
      "Faults injected by armed failpoint sites process-wide"));
  // Batch sizes are small integers: every fill level is an exact bucket.
  metrics::HistogramOptions fill_opts;
  fill_opts.sub_bits = 7;
  fill_opts.max_exp = 16;
  batch_fill_hist_ = &metrics_->histogram("ascend_batch_fill", {}, fill_opts,
                                          "Requests coalesced per dispatched batch");
}

InferenceEngine::~InferenceEngine() {
  // Shutdown close: everything still queued fails promptly with
  // EngineShutdownError; only in-flight forwards are allowed to drain.
  batcher_.close_now();
  // Drain the in-flight batch forwards: each worker exits once its forward
  // ends and next_batch() reports the batcher closed. The watchdog may
  // still trip a wedged forward and start a replacement meanwhile, so join
  // in rounds until a round finds no worker left.
  const auto join_workers = [this] {
    for (;;) {
      std::vector<std::thread> round;
      {
        std::lock_guard<std::mutex> lock(watch_mu_);
        round.swap(workers_);
      }
      if (round.empty()) return;
      for (std::thread& w : round) w.join();
    }
  };
  join_workers();
  // Stop the watchdog after the drain: it stays armed while the last
  // forwards run, so clients blocked on in-flight futures are failed at the
  // deadline even during shutdown (the dtor itself still waits out the
  // slow worker — it cannot cancel a thread, only outlive its clients).
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  join_workers();  // a replacement the watchdog started after the first round
  // A shared metrics registry outlives the engine: drop the callback series
  // that capture `this` before the members they read are destroyed.
  for (const metrics::CallbackId id : metric_callbacks_) metrics_->remove_callback(id);
}

void InferenceEngine::count_drop(Priority p) {
  pstats_[static_cast<std::size_t>(p)].deadline_dropped.fetch_add(1);
}

const std::string& InferenceEngine::resolve_variant(const std::string& requested) const {
  return requested.empty() ? default_variant_ : requested;
}

std::future<Prediction> InferenceEngine::submit(std::vector<float> image, RequestOptions ropts) {
  AtomicPriorityStats& ps = pstats_[static_cast<std::size_t>(ropts.priority)];
  std::string variant = resolve_variant(ropts.variant);
  if (!registry_->contains(variant)) {
    ps.rejected.fetch_add(1);
    throw UnknownVariantError(variant);
  }
  ropts.variant = std::move(variant);
  // Count `queued` before handing the request to the batcher: once enqueued
  // it can be served (and counted) immediately, and a stats() or scrape
  // reader must never observe served > queued (seq_cst atomics keep the
  // program order visible). A rejected enqueue rolls the count back.
  const bool counted = ropts.deadline.count() >= 0;  // expired-on-arrival never queues
  if (counted) ps.queued.fetch_add(1);
  try {
    return batcher_.enqueue(std::move(image), std::move(ropts));
  } catch (const QueueFullError&) {
    if (counted) ps.queued.fetch_sub(1);
    ps.rejected.fetch_add(1);
    throw;
  } catch (...) {
    if (counted) ps.queued.fetch_sub(1);
    throw;
  }
}

InferenceEngine::BatchJob::BatchJob(std::vector<Request> b)
    : batch(std::move(b)), claimed(new std::atomic<bool>[batch.size()]) {
  for (std::size_t r = 0; r < batch.size(); ++r)
    claimed[r].store(false, std::memory_order_relaxed);
}

void InferenceEngine::BatchJob::fail_unresolved(const std::exception_ptr& err) {
  for (std::size_t r = 0; r < batch.size(); ++r)
    if (claim(r)) batch[r].promise.set_exception(err);
}

void InferenceEngine::worker_loop() {
  for (;;) {
    std::vector<Request> batch = batcher_.next_batch();  // counted in flight by the take observer
    if (batch.empty()) return;                            // closed and drained
    const auto job = std::make_shared<BatchJob>(std::move(batch));
    register_flight(job);
    try {
      process_batch(*job);
    } catch (...) {
      // Any error escaping the forward path fails the whole batch (rows the
      // watchdog already claimed stay with their WatchdogTimeoutError).
      job->fail_unresolved(std::current_exception());
    }
    // Abandoned: the watchdog already stopped counting this forward and
    // started a replacement worker, so this one bows out.
    if (!unregister_flight(job.get())) return;
    in_flight_.fetch_sub(1);
  }
}

void InferenceEngine::register_flight(const std::shared_ptr<BatchJob>& job) {
  if (opts_.forward_timeout.count() <= 0) return;
  job->started = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    flights_.push_back(job);
  }
  watch_cv_.notify_all();
}

bool InferenceEngine::unregister_flight(const BatchJob* job) {
  if (opts_.forward_timeout.count() <= 0) return true;
  std::lock_guard<std::mutex> lock(watch_mu_);
  for (std::size_t i = 0; i < flights_.size(); ++i) {
    if (flights_[i].get() == job) {
      flights_.erase(flights_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;  // absent: the watchdog already abandoned this flight
}

void InferenceEngine::watchdog_loop() {
  const auto timeout = opts_.forward_timeout;
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!watch_stop_) {
    const auto now = std::chrono::steady_clock::now();
    auto wake = std::chrono::steady_clock::time_point::max();
    std::vector<std::shared_ptr<BatchJob>> tripped;
    for (std::size_t i = 0; i < flights_.size();) {
      const auto deadline = flights_[i]->started + timeout;
      if (deadline <= now) {
        tripped.push_back(std::move(flights_[i]));
        flights_.erase(flights_.begin() + static_cast<long>(i));
      } else {
        wake = std::min(wake, deadline);
        ++i;
      }
    }
    if (!tripped.empty()) {
      lock.unlock();
      const auto err = std::make_exception_ptr(WatchdogTimeoutError{});
      for (const auto& job : tripped) {
        // Order matters: mark abandoned first so the wedged worker stops
        // touching metrics, count the trip before any client can see it,
        // take the promises, and restore capacity last — stop counting the
        // forward in flight, then start a replacement worker — once the
        // engine serves on, this thread's work on the job is all done.
        job->abandoned.store(true);
        watchdog_trips_.fetch_add(1);
        job->fail_unresolved(err);
        in_flight_.fetch_sub(1);
      }
      lock.lock();
      for (std::size_t i = 0; i < tripped.size(); ++i) start_worker();
      continue;
    }
    if (wake == std::chrono::steady_clock::time_point::max())
      watch_cv_.wait(lock);
    else
      watch_cv_.wait_until(lock, wake);
  }
}

void InferenceEngine::process_batch(BatchJob& job) {
  std::vector<Request>& batch = job.batch;
  const auto closed_at = std::chrono::steady_clock::now();
  const int b = static_cast<int>(batch.size());
  const std::string& variant = batch[0].variant;  // next_batch groups per variant

  // The generation snapshot this batch runs on: a concurrent hot-swap
  // republishing the variant never blocks or invalidates us.
  std::shared_ptr<const Servable> servable = registry_->try_get(variant);
  if (!servable) {
    job.fail_unresolved(std::make_exception_ptr(UnknownVariantError(variant)));
    return;
  }

  // Lease a warm arena for this forward: the batch tensors, every
  // intermediate in the infer chain, and the logits all bump-allocate from
  // one slab (retry/fallback rebuilds bump further into the same slab). The
  // lease outlives the last logits read — its destructor resets the arena.
  ArenaLease lease(arenas_);

  const int pixels = servable->input_dim();
  std::vector<int> rows;  // rows admitted to the forward phase
  rows.reserve(static_cast<std::size_t>(b));
  for (int r = 0; r < b; ++r) {
    Request& req = batch[static_cast<std::size_t>(r)];
    if (req.expired(closed_at)) {
      // Last line of deadline defence: expired between batch close and
      // forward start. Fail fast; the forward never sees this row.
      if (job.claim(static_cast<std::size_t>(r))) {
        pstats_[static_cast<std::size_t>(req.priority)].deadline_dropped.fetch_add(1);
        req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError{}));
      }
      continue;
    }
    if (static_cast<int>(req.image.size()) != pixels) {
      // Odd-sized request: fail it alone and keep serving the rest.
      if (job.claim(static_cast<std::size_t>(r)))
        req.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
            "InferenceEngine: payload size does not match variant input_dim")));
      continue;
    }
    rows.push_back(r);
  }
  if (rows.empty()) {
    // Every row was dropped — never spend a model forward on a dead batch
    // (this is exactly the overloaded case where a forward hurts most).
    batches_.fetch_add(1);
    atomic_max(max_batch_seen_, b);
    return;
  }

  // Forward phase: when tracing is on, a SpanCollector rides the forward
  // thread (thread-local), so the per-layer-group ScopedSpans inside the
  // model attach to this batch without the servable knowing about tracing.
  const bool traced = tracer_.enabled();
  trace::SpanCollector collector;
  const auto forward_start = std::chrono::steady_clock::now();

  std::vector<Prediction> preds(static_cast<std::size_t>(b));
  std::vector<bool> done(static_cast<std::size_t>(b), false);
  std::vector<int> attempts(static_cast<std::size_t>(b), 1);
  std::vector<bool> degraded(static_cast<std::size_t>(b), false);

  // One infer over a row subset through `sv`; fills preds[r].label/logits
  // on success. Returns the forward's exception on failure.
  auto forward_rows = [&](const Servable& sv, const std::vector<int>& subset)
      -> std::exception_ptr {
    const int n = static_cast<int>(subset.size());
    Tensor images({n, sv.input_dim()});
    for (int i = 0; i < n; ++i) {
      const Request& req = batch[static_cast<std::size_t>(subset[static_cast<std::size_t>(i)])];
      std::copy(req.image.begin(), req.image.end(),
                images.data() + static_cast<std::size_t>(i) * sv.input_dim());
    }
    try {
      trace::CollectorScope scope(traced ? &collector : nullptr);
      ASCEND_FAILPOINT(fp_infer);
      const Tensor logits = sv.infer(images);
      for (int i = 0; i < n; ++i) {
        Prediction& pred = preds[static_cast<std::size_t>(subset[static_cast<std::size_t>(i)])];
        pred.label = argmax_row(logits, i);
        pred.logits.resize(static_cast<std::size_t>(logits.dim(1)));
        for (int c = 0; c < logits.dim(1); ++c)
          pred.logits[static_cast<std::size_t>(c)] = logits.at(i, c);
      }
      return nullptr;
    } catch (...) {
      return std::current_exception();
    }
  };

  // Primary phase with per-request retry budgets: the whole live subset is
  // retried together (one forward per attempt); rows that exhaust
  // max_attempts move to their fallback variant, rows without one fail with
  // the final error.
  std::vector<int> live = rows;
  std::vector<int> exhausted;
  // Per-row error captured at exhaustion time: `last_err` goes back to null
  // when a later attempt of the remaining live rows succeeds, so rows that
  // exhausted earlier must keep the error of their own final attempt.
  std::vector<std::exception_ptr> row_err(static_cast<std::size_t>(b));
  std::exception_ptr last_err;
  int attempt = 0;
  while (!live.empty()) {
    ++attempt;
    if (job.abandoned.load()) return;  // watchdog already failed the rows
    last_err = forward_rows(*servable, live);
    if (!last_err) {
      for (const int r : live) {
        attempts[static_cast<std::size_t>(r)] = attempt;
        done[static_cast<std::size_t>(r)] = true;
      }
      break;
    }
    std::vector<int> retry_rows;
    for (const int r : live) {
      attempts[static_cast<std::size_t>(r)] = attempt;
      if (batch[static_cast<std::size_t>(r)].retry.max_attempts > attempt) {
        retry_rows.push_back(r);
      } else {
        row_err[static_cast<std::size_t>(r)] = last_err;
        exhausted.push_back(r);
      }
    }
    live = std::move(retry_rows);
    if (live.empty()) break;
    // Exponential backoff on the forward worker: deliberate — a failing
    // variant sheds throughput instead of hammering itself. Bounded by
    // max_attempts; the watchdog deadline covers the sleep.
    std::chrono::microseconds backoff{0};
    for (const int r : live) {
      pstats_[static_cast<std::size_t>(batch[static_cast<std::size_t>(r)].priority)]
          .retries.fetch_add(1);
      backoff = std::max(backoff, batch[static_cast<std::size_t>(r)].retry.backoff);
    }
    if (backoff.count() > 0)
      std::this_thread::sleep_for(backoff * (1 << std::min(attempt - 1, 10)));
    if (job.abandoned.load()) return;
    // Deadlines kept ticking through the backoff.
    const auto now = std::chrono::steady_clock::now();
    std::vector<int> still_live;
    for (const int r : live) {
      Request& req = batch[static_cast<std::size_t>(r)];
      if (req.expired(now)) {
        if (job.claim(static_cast<std::size_t>(r))) {
          pstats_[static_cast<std::size_t>(req.priority)].deadline_dropped.fetch_add(1);
          req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError{}));
        }
      } else {
        still_live.push_back(r);
      }
    }
    live = std::move(still_live);
  }

  // Degradation phase: exhausted rows grouped by fallback variant, one
  // forward per group, no retry on the fallback itself.
  if (!exhausted.empty()) {
    std::map<std::string, std::vector<int>> fallback_groups;
    for (const int r : exhausted) {
      const std::string& fb = batch[static_cast<std::size_t>(r)].retry.fallback_variant;
      if (fb.empty() || fb == variant) {
        if (job.claim(static_cast<std::size_t>(r)))
          batch[static_cast<std::size_t>(r)].promise.set_exception(
              row_err[static_cast<std::size_t>(r)]);
      } else {
        fallback_groups[fb].push_back(r);
      }
    }
    for (auto& [fb, frows] : fallback_groups) {
      if (job.abandoned.load()) return;
      const std::shared_ptr<const Servable> fsv = registry_->try_get(fb);
      std::exception_ptr err;
      if (!fsv)
        err = std::make_exception_ptr(UnknownVariantError(fb));
      else if (fsv->input_dim() != pixels)
        err = std::make_exception_ptr(std::invalid_argument(
            "InferenceEngine: fallback variant input_dim differs from primary"));
      else
        err = forward_rows(*fsv, frows);
      if (err) {
        for (const int r : frows)
          if (job.claim(static_cast<std::size_t>(r)))
            batch[static_cast<std::size_t>(r)].promise.set_exception(err);
      } else {
        for (const int r : frows) {
          attempts[static_cast<std::size_t>(r)] += 1;
          done[static_cast<std::size_t>(r)] = true;
          degraded[static_cast<std::size_t>(r)] = true;
          preds[static_cast<std::size_t>(r)].variant = fb;
          pstats_[static_cast<std::size_t>(batch[static_cast<std::size_t>(r)].priority)]
              .fallback_served.fetch_add(1);
        }
      }
    }
  }

  const auto forward_end = std::chrono::steady_clock::now();
  if (job.abandoned.load()) return;  // late results discarded; rows already failed

  // Claim the rows this thread will resolve (a racing watchdog trip keeps
  // whatever it won) and finish their predictions.
  std::vector<int> resolved;
  resolved.reserve(rows.size());
  int served = 0;
  std::uint64_t queue_ns_sum = 0;
  for (const int r : rows) {
    if (!done[static_cast<std::size_t>(r)]) continue;
    if (!job.claim(static_cast<std::size_t>(r))) continue;
    resolved.push_back(r);
    ++served;
    const Request& req = batch[static_cast<std::size_t>(r)];
    Prediction& pred = preds[static_cast<std::size_t>(r)];
    if (!degraded[static_cast<std::size_t>(r)]) pred.variant = variant;
    pred.attempts = attempts[static_cast<std::size_t>(r)];
    pred.degraded = degraded[static_cast<std::size_t>(r)];
    pred.queue_ms =
        std::chrono::duration<double, std::milli>(req.trace.batch_close - req.enqueued).count();
    queue_ns_sum += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(req.trace.batch_close - req.enqueued)
            .count());
  }
  if (resolved.empty()) {
    batches_.fetch_add(1);
    atomic_max(max_batch_seen_, b);
    return;
  }

  // One completion stamp for the whole batch: every row resolves within
  // microseconds of it, and per-row clock reads would cost more than they
  // would disambiguate.
  const auto complete = std::chrono::steady_clock::now();

  // Record counters and histograms before resolving any future: a client
  // that sees its result must also see it reflected in stats() / a scrape.
  images_.fetch_add(static_cast<std::uint64_t>(served));
  batches_.fetch_add(1);
  if (b >= batcher_.max_batch()) full_batches_.fetch_add(1);
  queue_wait_ns_.fetch_add(queue_ns_sum);
  atomic_max(max_batch_seen_, b);
  batch_fill_hist_->record(static_cast<std::uint64_t>(b));
  metrics::Histogram& forward_hist = metrics_->histogram(
      "ascend_forward_usec", {{"variant", variant}}, {}, "Servable::infer wall time per batch");
  forward_hist.record(usec_between(forward_start, forward_end));
  // Per-(variant, priority) latency series resolved at most once per batch
  // and priority — the registry lookup takes its mutex, the record does not.
  std::array<metrics::Histogram*, kNumPriorities> latency_hist{};
  for (const int r : resolved) {
    const Request& req = batch[static_cast<std::size_t>(r)];
    const auto pi = static_cast<std::size_t>(req.priority);
    pstats_[pi].served.fetch_add(1);
    queue_wait_hist_[pi]->record(usec_between(req.enqueued, req.trace.batch_close));
    if (!latency_hist[pi])
      latency_hist[pi] = &metrics_->histogram(
          "ascend_request_latency_usec",
          {{"variant", variant}, {"priority", priority_name(req.priority)}}, {},
          "End-to-end request latency (enqueue to completion)");
    latency_hist[pi]->record(usec_between(req.enqueued, complete));
    if (traced) {
      trace::RequestTrace t;
      t.seq = req.seq;
      t.set_variant(variant);
      t.priority = static_cast<int>(req.priority);
      t.batch_size = b;
      t.enqueue = req.trace.enqueue;
      t.batch_close = req.trace.batch_close;
      t.forward_start = forward_start;
      t.forward_end = forward_end;
      t.complete = complete;
      t.num_spans = collector.count();
      t.spans_dropped = collector.dropped();
      std::copy(collector.spans(), collector.spans() + collector.count(), t.spans.begin());
      tracer_.record(t);
    }
  }

  for (const int r : resolved)
    batch[static_cast<std::size_t>(r)].promise.set_value(
        std::move(preds[static_cast<std::size_t>(r)]));
}

EngineStats InferenceEngine::stats() const {
  EngineStats st;
  st.images = images_.load();
  st.batches = batches_.load();
  st.full_batches = full_batches_.load();
  st.idle_batches = batcher_.idle_closes();
  st.watchdog_trips = watchdog_trips_.load();
  st.total_queue_ms = static_cast<double>(queue_wait_ns_.load()) / 1e6;
  st.max_batch_seen = max_batch_seen_.load();
  st.max_in_flight = max_in_flight_.load();
  for (int p = 0; p < kNumPriorities; ++p) {
    const AtomicPriorityStats& ps = pstats_[static_cast<std::size_t>(p)];
    PriorityStats& out = st.by_priority[static_cast<std::size_t>(p)];
    // Read queued last: each request increments queued strictly before
    // served/deadline_dropped, so this order can only over-report queued —
    // never served > queued (the invariant test_metrics pins).
    out.served = ps.served.load();
    out.deadline_dropped = ps.deadline_dropped.load();
    out.rejected = ps.rejected.load();
    out.retries = ps.retries.load();
    out.fallback_served = ps.fallback_served.load();
    out.queued = ps.queued.load();
  }
  return st;
}

}  // namespace ascend::runtime
