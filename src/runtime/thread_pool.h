#pragma once
// thread_pool.h — fixed-size worker pool for the SC inference runtime.
//
// The engine's hot path includes the per-activation SC nonlinear blocks
// (GELU elements; the softmax runs inside attention's tile loop); those units
// are independent, so the pool's
// job is plain data parallelism: `submit` for fire-and-forget futures and
// `parallel_for` for blocking chunked loops. Tasks submitted from one thread
// run FIFO per worker; the destructor drains the queue before joining so no
// accepted task is ever dropped.
//
// parallel_for is allocation-free at steady state: the per-call job state
// lives on the caller's stack in an intrusive list the workers poll, chunks
// are claimed under the pool mutex (no per-chunk task objects, futures, or
// type-erased closures), and the body is passed by reference through a
// function-pointer trampoline instead of a std::function. This is what keeps
// the SC GELU hooks — which fan every fc1 output over the pool — off the
// heap during serving (see runtime/arena.h for the tensor half of that
// story). Concurrent parallel_for calls from different threads interleave:
// workers drain whichever jobs are live, oldest first.

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/failpoint.h"

namespace ascend::runtime {

namespace detail {
/// The "pool.task" fail point (defined in thread_pool.cpp). It fires inside
/// the packaged task, so an injected fault lands in the task's future like
/// any other task exception — it never escapes into a worker loop.
failpoint::Site& pool_task_site();
}  // namespace detail

class ThreadPool {
 public:
  /// `threads` < 1 is clamped to 1. Workers start immediately.
  explicit ThreadPool(int threads);
  /// Drains every queued task, then joins the workers.
  ~ThreadPool() { shutdown(); }
  /// What the destructor does, without ending the object's life: drains
  /// every queued task and joins the workers. Later submits throw and
  /// grow() is a no-op, so a thread still holding the pool (the engine
  /// watchdog) may call grow() during and after the drain. Idempotent.
  void shutdown();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_.load(std::memory_order_relaxed); }

  /// Add `n` workers to a live pool. Used by the engine watchdog to replace
  /// a worker wedged in a stuck forward, so pool capacity never decays.
  void grow(int n);

  /// Enqueue a callable; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<F>(fn)]() mutable -> R {
          ASCEND_FAILPOINT(detail::pool_task_site());
          return f();
        });
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run body(begin, end) over [begin, end) split into chunks and block
  /// until all complete. By default the range splits into ~size() chunks;
  /// `max_chunk > 0` caps the chunk size instead — submit many small chunks
  /// when per-index cost varies wildly (the DSE sweep), so chunk claiming
  /// load-balances dynamically. The caller claims chunks alongside the
  /// workers, so the loop makes progress even on a single-core pool. Must
  /// not be called from inside a pool task (the caller-waits pattern would
  /// deadlock). Rethrows the first chunk exception after all chunks finish.
  template <typename Body>
  void parallel_for(int begin, int end, const Body& body, int max_chunk = 0) {
    parallel_for_impl(
        begin, end,
        [](void* ctx, int lo, int hi) { (*static_cast<const Body*>(ctx))(lo, hi); },
        const_cast<void*>(static_cast<const void*>(&body)), max_chunk);
  }

 private:
  using ChunkFn = void (*)(void* ctx, int lo, int hi);

  /// One in-flight parallel_for: lives on the caller's stack, linked into
  /// jobs_. All fields are guarded by mu_ except during body execution.
  struct ParallelJob {
    ChunkFn invoke = nullptr;
    void* ctx = nullptr;
    int begin = 0;
    int end = 0;
    int step = 1;
    int chunks = 0;
    int next = 0;     ///< next chunk index to claim (under mu_)
    int running = 0;  ///< chunks claimed but not yet finished (under mu_)
    std::exception_ptr error;  ///< first failure (under mu_)
    ParallelJob* next_job = nullptr;
  };

  void parallel_for_impl(int begin, int end, ChunkFn invoke, void* ctx, int max_chunk);
  /// Any live job with an unclaimed chunk? (under mu_)
  bool claimable() const;
  /// Claim and run one chunk of the oldest live job. Caller holds `lock`;
  /// returns false when no job has unclaimed chunks.
  bool run_one_chunk(std::unique_lock<std::mutex>& lock);
  void worker_loop();

  std::vector<std::thread> workers_;  ///< mutated under mu_ (ctor aside)
  std::atomic<int> size_{0};          ///< workers_.size(), lock-free for readers
  std::queue<std::function<void()>> queue_;
  ParallelJob* jobs_ = nullptr;  ///< newest-first intrusive list (under mu_)
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;  ///< signalled when a job's last chunk retires
  bool closed_ = false;
};

}  // namespace ascend::runtime
