#include "runtime/thread_pool.h"

namespace ascend::runtime {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
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
