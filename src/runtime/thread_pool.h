#pragma once
// thread_pool.h — fixed-size worker pool with one FIFO task queue.
//
// `submit` enqueues fire-and-forget tasks with futures; `parallel_for` runs a
// blocking chunked loop by posting helper tasks to the same queue while the
// caller claims chunks itself. The engine runs its in-flight batch forwards
// on a pool, the DSE sweep its design points, and the circuit-emulated SC
// GELU its activations when a pool is given (the LUT variants apply their
// tables on the calling thread and never touch a pool). Tasks submitted from
// one thread run FIFO per worker; shutdown() and the destructor drain the
// queue before joining so no accepted task is ever dropped.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
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
    if (!post([task] { (*task)(); }))
      throw std::runtime_error("ThreadPool::submit after shutdown");
    return fut;
  }

  /// Run body(begin, end) over [begin, end) split into chunks and block
  /// until all complete. By default the range splits into ~size() chunks;
  /// `max_chunk > 0` caps the chunk size instead — submit many small chunks
  /// when per-index cost varies wildly (the DSE sweep), so chunk claiming
  /// load-balances dynamically. A range of one chunk runs inline. Otherwise
  /// up to size() helper tasks join the queue and the caller claims chunks
  /// alongside them, so it never waits for a helper that has not started:
  /// on a busy or shut-down pool the caller runs every chunk itself, and a
  /// helper that starts late finds nothing left to claim. Rethrows the first
  /// chunk exception after every claimed chunk finishes.
  template <typename Body>
  void parallel_for(int begin, int end, const Body& body, int max_chunk = 0) {
    const int n = end - begin;
    if (n <= 0) return;
    const int width = std::min(n, size());
    int step = (n + width - 1) / width;
    if (max_chunk > 0) step = std::min(step, max_chunk);
    const int chunks = (n + step - 1) / step;
    if (chunks <= 1) {
      body(begin, end);
      return;
    }
    auto claims = std::make_shared<ChunkClaims>(begin, end, step, chunks);
    // A helper reads `body` only after claiming a chunk, and the caller
    // waits for every claimed chunk, so `b` is never read after it dangles.
    const Body* b = &body;
    for (int h = std::min(chunks - 1, size()); h > 0; --h)
      if (!post([claims, b] { claims->run_all(b); })) break;
    claims->run_all(b);
    claims->wait();
  }

 private:
  /// The shared state of one parallel_for: which chunks are claimed, how
  /// many finished, and the first chunk exception. Heap-held so a helper
  /// task that starts after the call returned still finds it alive.
  class ChunkClaims {
   public:
    ChunkClaims(int begin, int end, int step, int chunks)
        : begin_(begin), end_(end), step_(step), chunks_(chunks) {}

    /// Claim and run chunks until none is left. `body` is dereferenced only
    /// once a chunk is claimed.
    template <typename Body>
    void run_all(const Body* body) {
      std::unique_lock<std::mutex> lock(mu_);
      while (next_ < chunks_) {
        const int lo = begin_ + next_++ * step_;
        lock.unlock();
        std::exception_ptr err;
        try {
          (*body)(lo, std::min(end_, lo + step_));
        } catch (...) {
          err = std::current_exception();
        }
        lock.lock();
        if (err && !error_) error_ = std::move(err);
        if (++finished_ == chunks_) cv_.notify_all();
      }
    }
    /// Blocks until every chunk finished; rethrows the first failure.
    void wait();

   private:
    const int begin_, end_, step_, chunks_;
    std::mutex mu_;
    std::condition_variable cv_;
    int next_ = 0;              ///< next chunk index to claim (under mu_)
    int finished_ = 0;          ///< under mu_
    std::exception_ptr error_;  ///< first failure (under mu_)
  };

  /// Queue `task` for a worker; false (task dropped) once shut down.
  bool post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;  ///< mutated under mu_ (ctor aside)
  std::atomic<int> size_{0};          ///< workers_.size(), lock-free for readers
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
};

}  // namespace ascend::runtime
