#include "runtime/batcher.h"

#include <algorithm>
#include <stdexcept>

#include "runtime/failpoint.h"

namespace ascend::runtime {

namespace {

using Clock = std::chrono::steady_clock;

failpoint::Site fp_enqueue{"batcher.enqueue"};

/// How far ahead of a member's deadline its batch is closed, so the timed
/// wait's wake-up jitter (easily a few ms on a loaded host) still lands
/// *before* the deadline and the request is served rather than dropped.
/// Requests whose remaining budget is tighter than the lead dispatch
/// immediately.
constexpr std::chrono::milliseconds kDeadlineCloseLead{5};

/// Scheduling order: priority class first, arrival order within a class.
bool sched_before(const Request& a, const Request& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq < b.seq;
}

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "?";
}

Batcher::Batcher(int max_batch, std::chrono::microseconds max_delay, int max_pending,
                 OverflowPolicy overflow)
    : max_batch_(max_batch), max_delay_(max_delay), max_pending_(max_pending), overflow_(overflow) {
  if (max_batch_ < 1) throw std::invalid_argument("Batcher: max_batch must be >= 1");
  if (max_delay_.count() < 0) throw std::invalid_argument("Batcher: max_delay must be >= 0");
  if (max_pending_ < 0) throw std::invalid_argument("Batcher: max_pending must be >= 0");
}

void Batcher::set_drop_observer(std::function<void(Priority)> observer) {
  drop_observer_ = std::move(observer);
}

void Batcher::set_take_observer(std::function<void()> observer) {
  take_observer_ = std::move(observer);
}

std::future<Prediction> Batcher::enqueue(std::vector<float> image, RequestOptions opts) {
  ASCEND_FAILPOINT(fp_enqueue);
  Request req;
  req.image = std::move(image);
  req.enqueued = Clock::now();
  req.trace.enqueue = req.enqueued;
  req.variant = std::move(opts.variant);
  req.priority = opts.priority;
  req.retry = std::move(opts.retry);
  if (opts.deadline.count() != 0) {
    req.has_deadline = true;
    req.deadline = req.enqueued + opts.deadline;
  }
  std::future<Prediction> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) throw EngineShutdownError{};
    if (req.expired(req.enqueued)) {
      // Negative budget: fail through the future without touching the queue,
      // so an expired-on-arrival request can never displace live work.
      lock.unlock();
      if (drop_observer_) drop_observer_(req.priority);
      req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError{}));
      return fut;
    }
    if (max_pending_ > 0 && static_cast<int>(queue_.size()) >= max_pending_) {
      if (overflow_ == OverflowPolicy::kReject) throw QueueFullError{};
      space_cv_.wait(lock, [this] {
        return closed_ || static_cast<int>(queue_.size()) < max_pending_;
      });
      if (closed_) throw EngineShutdownError{};
    }
    req.seq = next_seq_++;
    queue_.push_back(std::move(req));
  }
  cv_.notify_all();
  return fut;
}

void Batcher::drop_expired(std::unique_lock<std::mutex>& lock, Clock::time_point now) {
  std::vector<Request> expired;
  for (std::size_t i = 0; i < queue_.size();) {
    if (queue_[i].expired(now)) {
      expired.push_back(std::move(queue_[i]));
      queue_.erase(queue_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  if (expired.empty()) return;
  if (max_pending_ > 0) space_cv_.notify_all();
  lock.unlock();
  for (Request& req : expired) {
    if (drop_observer_) drop_observer_(req.priority);
    req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError{}));
  }
  lock.lock();
}

std::vector<std::size_t> Batcher::select_group() const {
  // Leader: the request the scheduler owes service to next.
  std::size_t leader = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i)
    if (sched_before(queue_[i], queue_[leader])) leader = i;
  // Companions: everything bound for the leader's variant, served in
  // scheduling order so a mixed-priority group still favours urgent rows.
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < queue_.size(); ++i)
    if (queue_[i].variant == queue_[leader].variant) members.push_back(i);
  std::sort(members.begin(), members.end(),
            [this](std::size_t a, std::size_t b) { return sched_before(queue_[a], queue_[b]); });
  if (members.size() > static_cast<std::size_t>(max_batch_))
    members.resize(static_cast<std::size_t>(max_batch_));
  return members;
}

std::vector<Request> Batcher::next_batch() {
  std::unique_lock<std::mutex> lock(mu_);
  ++waiting_;
  for (;;) {
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    drop_expired(lock, Clock::now());
    if (queue_.empty()) {
      if (closed_) {  // closed and drained
        --waiting_;
        return {};
      }
      continue;
    }

    const std::vector<std::size_t> members = select_group();
    const auto now = Clock::now();
    // Close the batch before the latency budget of its oldest member runs
    // out, and with enough lead on any member's deadline that the member is
    // served before it expires instead of being parked until it drops.
    auto close_at = Clock::time_point::max();
    for (std::size_t i : members) {
      close_at = std::min(close_at, queue_[i].enqueued + max_delay_);
      if (queue_[i].has_deadline)
        close_at = std::min(close_at, queue_[i].deadline - kDeadlineCloseLead);
    }
    const bool full = members.size() >= static_cast<std::size_t>(max_batch_);
    const bool cut = full || closed_ || now >= close_at;
    // Idle cutoff: another consumer waits here and stays free after this
    // take, so it can serve the next arrival, or the next group, itself.
    const bool idle = waiting_ >= 2;
    if (cut || idle) {
      if (!cut) ++idle_closes_;
      std::vector<Request> batch;
      batch.reserve(members.size());
      const auto close_stamp = Clock::now();
      for (std::size_t i : members) {
        queue_[i].trace.batch_close = close_stamp;
        batch.push_back(std::move(queue_[i]));
      }
      // Erase the taken slots back-to-front so earlier indices stay valid.
      std::vector<std::size_t> sorted = members;
      std::sort(sorted.begin(), sorted.end());
      for (auto it = sorted.rbegin(); it != sorted.rend(); ++it)
        queue_.erase(queue_.begin() + static_cast<long>(*it));
      --waiting_;
      if (take_observer_) take_observer_();
      if (max_pending_ > 0) space_cv_.notify_all();
      // What is left forms a new group: wake the other consumers to
      // re-evaluate it.
      if (!queue_.empty()) cv_.notify_all();
      lock.unlock();
      return batch;
    }

    // Wait for more arrivals (which may fill the batch, or bring a
    // higher-priority request that re-aims the whole selection), another
    // consumer taking part of the queue, the close deadline, or shutdown —
    // then re-evaluate from scratch. A consumer arriving in next_batch()
    // evaluates the idle cutoff itself, so this one need not wake for it.
    // Also wake at the earliest deadline of *any* queued request (not just
    // the leader group's), so an expiring request of another variant is
    // failed at its deadline instead of whenever this group's cutoff next
    // fires.
    auto wake_at = close_at;
    for (const Request& r : queue_)
      if (r.has_deadline) wake_at = std::min(wake_at, r.deadline);
    // A changed size or arrival count marks a changed queue; both together
    // catch an arrival that refilled a slot another consumer emptied.
    const std::size_t n = queue_.size();
    const std::uint64_t arrivals = next_seq_;
    cv_.wait_until(lock, wake_at, [this, n, arrivals] {
      return closed_ || queue_.size() != n || next_seq_ != arrivals;
    });
  }
}

void Batcher::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
}

void Batcher::close_now() {
  std::vector<Request> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    orphaned = std::move(queue_);
    queue_.clear();
  }
  cv_.notify_all();
  space_cv_.notify_all();
  const auto err = std::make_exception_ptr(EngineShutdownError{});
  for (Request& req : orphaned) req.promise.set_exception(err);
}

std::size_t Batcher::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t Batcher::pending(Priority p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Request& r : queue_)
    if (r.priority == p) ++n;
  return n;
}

std::uint64_t Batcher::idle_closes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_closes_;
}

PendingCounts Batcher::pending_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  PendingCounts counts;
  counts.total = queue_.size();
  for (const Request& r : queue_) {
    ++counts.by_priority[static_cast<std::size_t>(r.priority)];
    // Queues hold a handful of variants; linear probe beats a map here.
    bool found = false;
    for (auto& [v, n] : counts.by_variant)
      if (v == r.variant) {
        ++n;
        found = true;
        break;
      }
    if (!found) counts.by_variant.emplace_back(r.variant, 1);
  }
  std::sort(counts.by_variant.begin(), counts.by_variant.end());
  return counts;
}

}  // namespace ascend::runtime
