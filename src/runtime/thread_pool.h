#pragma once
// thread_pool.h — fixed-size worker pool behind a blocking parallel_for.
//
// `parallel_for` runs a chunked loop by posting helper tasks to one FIFO
// queue while the caller claims chunks itself. The DSE sweep runs its design
// points on a pool, and the circuit-emulated SC GELU its activations when a
// pool is given (the LUT variants apply their tables on the calling thread
// and never touch a pool). The destructor drains the queue before joining.

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ascend::runtime {

class ThreadPool {
 public:
  /// `threads` < 1 is clamped to 1. Workers start immediately.
  explicit ThreadPool(int threads);
  /// Drains every queued helper task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Run body(begin, end) over [begin, end) split into chunks and block
  /// until all complete. By default the range splits into ~size() chunks;
  /// `max_chunk > 0` caps the chunk size instead — submit many small chunks
  /// when per-index cost varies wildly (the DSE sweep), so chunk claiming
  /// load-balances dynamically. A range of one chunk runs inline. Otherwise
  /// up to size() helper tasks join the queue and the caller claims chunks
  /// alongside them, so it never waits for a helper that has not started:
  /// on a busy pool the caller runs every chunk itself, and a helper that
  /// starts late finds nothing left to claim. Rethrows the first chunk
  /// exception after every claimed chunk finishes. Safe to call from
  /// several threads at once.
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
      post([claims, b] { claims->run_all(b); });
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

  /// Queue `task` for a worker.
  void post(std::function<void()> task);
  void worker_loop();

  std::queue<std::function<void()>> queue_;  ///< under mu_
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;  ///< set by the destructor (under mu_)
  std::vector<std::thread> workers_;
};

}  // namespace ascend::runtime
