#pragma once
// batcher.h — priority/deadline-aware dynamic request batching.
//
// Clients enqueue single payloads tagged with RequestOptions{variant,
// priority, deadline} and get a future; consumer threads (the engine's
// forward workers, one per forward slot) pull coalesced batches. The queue
// is a priority queue over (priority, arrival order), and a batch only ever
// groups requests bound for the same variant ("compatible" requests —
// different servables cannot share a forward). Batch formation:
//   * the scheduler always serves the highest-priority waiting request
//     first: the next batch is built around it, from same-variant requests
//     in (priority, arrival) order;
//   * the batch closes when `max_batch` compatible requests are waiting
//     (size cutoff), when the group's oldest member has aged past
//     `max_delay` (latency cutoff), when waiting any longer would expire
//     a member's deadline (deadline cutoff), or when at least two consumers
//     wait in next_batch() (idle cutoff: another consumer stays free after
//     this batch to serve the next group, or a later arrival, itself; the
//     group it holds leaves once a consumer returns). A lone consumer never
//     sees two waiters and keeps the first three cutoffs;
//   * a request whose deadline has already passed is failed fast with
//     DeadlineExceededError at batch-formation time — it never reaches a
//     forward — and a higher-priority arrival re-aims the next batch at its
//     variant (interactive traffic preempts batch traffic in queue order).
//
// Scheduling is priority-strict, not earliest-deadline-first: a deadline
// never promotes a request ahead of its (priority, arrival) rank. The
// deadline cutoff closes the batch the request is *scheduled into*; a
// deadline expiring on a request outside the current selection wakes a
// consumer only to fail it fast at the deadline.
//
// Overload: an optional `max_pending` bounds the queue. When it is full,
// enqueue() either blocks until a consumer drains space (kBlock) or
// fails fast with QueueFullError (kReject), per the configured policy.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/metrics/trace.h"

namespace ascend::runtime {

/// What enqueue() does when the bounded queue is full.
enum class OverflowPolicy {
  kBlock,   ///< wait for a consumer to drain space (default)
  kReject,  ///< fail fast with QueueFullError
};

/// Thrown by enqueue() under OverflowPolicy::kReject on a full queue.
struct QueueFullError : std::runtime_error {
  QueueFullError() : std::runtime_error("Batcher: queue full") {}
};

/// Delivered through the request future when a deadline expires before the
/// request's batch forward started; the forward is never run for it.
struct DeadlineExceededError : std::runtime_error {
  DeadlineExceededError() : std::runtime_error("request deadline exceeded before forward") {}
};

/// Thrown by enqueue() once the batcher is closed, and delivered through the
/// future of every request still queued when the engine shuts down: queued
/// work is failed promptly at destruction, never served late or dropped
/// silently. Derives std::runtime_error so pre-existing catch sites hold.
struct EngineShutdownError : std::runtime_error {
  EngineShutdownError() : std::runtime_error("engine shut down before request was served") {}
};

/// Scheduling class of a request. Lower value = served first.
enum class Priority : int {
  kInteractive = 0,  ///< latency-sensitive; always scheduled before the rest
  kNormal = 1,       ///< default
  kBatch = 2,        ///< throughput traffic; yields to everything above
};
inline constexpr int kNumPriorities = 3;
const char* priority_name(Priority p);

/// What the engine does when a forward fails with an exception (including an
/// injected fault): retry the same variant with exponential backoff, then —
/// once attempts are exhausted — degrade to a named fallback variant rather
/// than failing the client. See docs/robustness.md.
struct RetryPolicy {
  /// Total attempts on the request's primary variant (1 = no retry).
  int max_attempts = 1;
  /// Backoff before attempt k+1: `backoff << (k-1)` (1ms, 2ms, 4ms, ...).
  /// The sleep runs on the forward worker, so it occupies a concurrent-
  /// forwards slot — bounded by max_attempts, and deliberate: a failing
  /// variant should shed throughput, not amplify it.
  std::chrono::microseconds backoff{1000};
  /// Variant to reroute to after the last failed attempt; empty = fail the
  /// request with the final error. The fallback forward is not retried.
  std::string fallback_variant;
};

/// Per-request routing and scheduling options for InferenceEngine::submit.
struct RequestOptions {
  /// Registry variant to serve this request; empty = the engine's default.
  std::string variant;
  Priority priority = Priority::kNormal;
  /// Time budget from submit(): once it elapses, the request fails fast with
  /// DeadlineExceededError instead of being served late. 0 = no deadline;
  /// negative = already expired (the future fails without queueing).
  std::chrono::microseconds deadline{0};
  /// Failure handling for this request's forward (default: fail on first
  /// error, no fallback).
  RetryPolicy retry;
};

/// Result delivered to a client for one payload.
struct Prediction {
  int label = -1;              ///< argmax class
  std::vector<float> logits;   ///< raw head outputs
  double queue_ms = 0.0;       ///< enqueue -> batch-close wait
  std::string variant;         ///< variant that actually served the request
  int attempts = 1;            ///< forward attempts spent (1 = first try)
  bool degraded = false;       ///< served by RetryPolicy::fallback_variant
};

struct Request {
  std::vector<float> image;  ///< flattened request payload
  std::promise<Prediction> promise;
  std::chrono::steady_clock::time_point enqueued;
  std::string variant;       ///< resolved routing key (engine fills the default in)
  Priority priority = Priority::kNormal;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};  ///< absolute; valid if has_deadline
  std::uint64_t seq = 0;     ///< arrival order within the batcher
  RetryPolicy retry;         ///< failure handling for this request's forward
  /// Lifecycle stamps for tracing/metrics: the batcher fills enqueue and
  /// batch_close; the engine stamps the forward and completion phases.
  trace::TraceContext trace;

  bool expired(std::chrono::steady_clock::time_point now) const {
    return has_deadline && now > deadline;
  }
};

/// Live queue-depth snapshot (one pass under the queue lock).
struct PendingCounts {
  std::size_t total = 0;
  std::array<std::size_t, kNumPriorities> by_priority{};
  /// Depth per resolved variant id, id-sorted; variants with no queued
  /// request are absent. Feeds the per-variant queue-depth gauges.
  std::vector<std::pair<std::string, std::size_t>> by_variant;
  std::size_t priority(Priority p) const { return by_priority[static_cast<std::size_t>(p)]; }
  /// Depth of one variant (0 when absent from the snapshot).
  std::size_t variant(const std::string& id) const {
    for (const auto& [v, n] : by_variant)
      if (v == id) return n;
    return 0;
  }
};

class Batcher {
 public:
  /// `max_pending` == 0 leaves the queue unbounded (the policy is inert).
  Batcher(int max_batch, std::chrono::microseconds max_delay, int max_pending = 0,
          OverflowPolicy overflow = OverflowPolicy::kBlock);

  /// Thread-safe producer side. Throws EngineShutdownError after close(); on
  /// a full bounded queue, blocks or throws QueueFullError per the overflow
  /// policy. A request with a negative deadline budget is failed immediately
  /// through its future (DeadlineExceededError) without queueing.
  std::future<Prediction> enqueue(std::vector<float> image, RequestOptions opts = {});

  /// Consumer side, safe for several consumer threads: blocks until a batch
  /// is ready per the cutoff rules, or the batcher is closed. Every returned
  /// request shares one variant, and no request is returned twice. Expired
  /// requests are failed and dropped here, never returned. Returns an empty
  /// vector only when closed *and* drained.
  std::vector<Request> next_batch();

  /// Stop accepting work and wake the consumers; queued requests still drain.
  void close();

  /// Shutdown close: stop accepting work AND fail every queued request
  /// promptly with EngineShutdownError through its future. The engine
  /// destructor uses this so queued work never waits on destructor ordering.
  void close_now();

  /// Observer for deadline-expired drops (stats); called outside the queue
  /// lock, from the thread that dropped the request (a consumer inside
  /// next_batch, or a producer that enqueued an already-expired request),
  /// before the request's future resolves — stats read after the future
  /// already count the drop.
  /// Set before a consumer starts; not thread-safe against next_batch.
  void set_drop_observer(std::function<void(Priority)> observer);

  /// Observer for batches leaving the queue: called by the consumer that
  /// took the batch, under the queue lock, before next_batch returns it. The
  /// engine counts the batch in flight here, so a reader that no longer
  /// sees a request in pending() already sees its batch counted.
  /// Set before a consumer starts; not thread-safe against next_batch.
  void set_take_observer(std::function<void()> observer);

  int max_batch() const { return max_batch_; }
  std::chrono::microseconds max_delay() const { return max_delay_; }
  int max_pending() const { return max_pending_; }
  OverflowPolicy overflow_policy() const { return overflow_; }
  std::size_t pending() const;
  /// Queued requests of one scheduling class.
  std::size_t pending(Priority p) const;
  /// Total and per-priority queue depth in one consistent snapshot — the
  /// source for the engine's queue-depth gauges.
  PendingCounts pending_counts() const;
  /// Batches closed by the idle cutoff alone (no other cutoff had fired).
  std::uint64_t idle_closes() const;

 private:
  /// Fail and remove every expired queued request. Drops the lock while
  /// resolving promises; re-acquires before returning.
  void drop_expired(std::unique_lock<std::mutex>& lock,
                    std::chrono::steady_clock::time_point now);
  /// Indices of the next batch's members, (priority, seq)-ordered, capped at
  /// max_batch: same-variant companions of the highest-priority oldest
  /// request. Requires a non-empty queue; caller holds the lock.
  std::vector<std::size_t> select_group() const;

  const int max_batch_;
  const std::chrono::microseconds max_delay_;
  const int max_pending_;
  const OverflowPolicy overflow_;
  std::function<void(Priority)> drop_observer_;
  std::function<void()> take_observer_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< wakes the consumers (work / close)
  std::condition_variable space_cv_;  ///< wakes blocked producers (space / close)
  std::vector<Request> queue_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  int waiting_ = 0;                ///< consumers inside next_batch()
  std::uint64_t idle_closes_ = 0;  ///< see idle_closes()
};

}  // namespace ascend::runtime
