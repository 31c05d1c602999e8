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

bool ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.push(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return;  // closed and drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop();
    lock.unlock();
    task();
    lock.lock();
  }
}

void ThreadPool::ChunkClaims::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return finished_ == chunks_; });
  if (error_) std::rethrow_exception(error_);
}

}  // namespace ascend::runtime
