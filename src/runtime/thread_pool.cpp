#include "runtime/thread_pool.h"

#include <algorithm>

namespace ascend::runtime {

namespace detail {
namespace {
failpoint::Site g_pool_task{"pool.task"};
}  // namespace
failpoint::Site& pool_task_site() { return g_pool_task; }
}  // namespace detail

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
  size_.store(n, std::memory_order_relaxed);
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  // grow() adds no worker once closed_ is set, so workers_ is stable here.
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void ThreadPool::grow(int n) {
  if (n <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;  // shutting down: joining what exists is enough
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
  size_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
}

bool ThreadPool::claimable() const {
  for (const ParallelJob* j = jobs_; j; j = j->next_job)
    if (j->next < j->chunks) return true;
  return false;
}

bool ThreadPool::run_one_chunk(std::unique_lock<std::mutex>& lock) {
  ParallelJob* j = jobs_;
  while (j && j->next >= j->chunks) j = j->next_job;
  if (!j) return false;
  const int c = j->next++;
  ++j->running;
  lock.unlock();
  const int lo = j->begin + c * j->step;
  const int hi = std::min(j->end, lo + j->step);
  std::exception_ptr err;
  try {
    j->invoke(j->ctx, lo, hi);
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  if (err && !j->error) j->error = err;
  --j->running;
  if (j->next >= j->chunks && j->running == 0) done_cv_.notify_all();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return closed_ || !queue_.empty() || claimable(); });
    if (run_one_chunk(lock)) continue;
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop();
      lock.unlock();
      task();
      lock.lock();
      continue;
    }
    if (closed_) return;  // drained: no queued tasks, no claimable chunks
  }
}

void ThreadPool::parallel_for_impl(int begin, int end, ChunkFn invoke, void* ctx, int max_chunk) {
  const int n = end - begin;
  if (n <= 0) return;
  int step = (n + std::min(n, size()) - 1) / std::min(n, size());
  if (max_chunk > 0) step = std::min(step, max_chunk);
  const int chunks = (n + step - 1) / step;
  if (chunks <= 1) {
    invoke(ctx, begin, end);
    return;
  }

  ParallelJob job;
  job.invoke = invoke;
  job.ctx = ctx;
  job.begin = begin;
  job.end = end;
  job.step = step;
  job.chunks = chunks;

  std::unique_lock<std::mutex> lock(mu_);
  // Append at the tail: workers drain oldest jobs first, so concurrent
  // parallel_for callers share the pool roughly fairly.
  ParallelJob** tail = &jobs_;
  while (*tail) tail = &(*tail)->next_job;
  *tail = &job;
  cv_.notify_all();

  // The caller claims chunks alongside the workers (any live job's — helping
  // an older job still drains the pool toward ours), then waits out the
  // stragglers.
  while (job.next < job.chunks) {
    if (!run_one_chunk(lock)) break;
  }
  done_cv_.wait(lock, [&job] { return job.next >= job.chunks && job.running == 0; });

  // Unlink before returning: the job frame dies with this call.
  ParallelJob** p = &jobs_;
  while (*p != &job) p = &(*p)->next_job;
  *p = job.next_job;

  if (job.error) {
    std::exception_ptr err = job.error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace ascend::runtime
