#include "loadgen.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int LoadGen::pick_input() {
  return static_cast<int>(rng_() % static_cast<std::uint64_t>(target_.inputs()));
}

StepResult LoadGen::open_loop(double rate, double seconds, std::size_t backlog_cap,
                              double drain_s) {
  StepResult r;
  r.offered_rps = rate;
  r.seconds = seconds;
  std::exponential_distribution<double> gap_s(rate);
  const std::uint64_t base = next_id_;
  std::vector<Clock::time_point> scheduled;  // by id - base
  std::vector<char> done;
  std::size_t in_flight = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);

  const auto resolve = [&](std::uint64_t id, Outcome o, Clock::time_point at) {
    const std::size_t k = static_cast<std::size_t>(id - base);
    if (id < base || k >= done.size() || done[k]) return;  // not ours / duplicate
    done[k] = 1;
    --in_flight;
    r.ledger.count(o);
    if (o != Outcome::kOk) return;
    r.latency_ms.push_back(ms_between(scheduled[k], at));
    r.sched_s.push_back(std::chrono::duration<double>(scheduled[k] - start).count());
  };
  const auto reap = [&](Clock::time_point until) {
    replies_.clear();
    target_.poll(replies_, until);
    for (const Reply& rep : replies_) resolve(rep.id, rep.outcome, rep.at);
  };

  const double cpu0 = thread_cpu_s();
  const Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
  Clock::time_point next = start;
  const Clock::duration slice = (end - start) / kSlices;
  Clock::time_point slice_end = start + slice;
  unsigned long long steal0, total0;
  read_steal_ticks(steal0, total0);
  const auto end_slice = [&] {
    unsigned long long steal, total;
    read_steal_ticks(steal, total);
    r.backlog.push_back(in_flight);
    r.slice_steal.push_back(total > total0 ? 100.0 * static_cast<double>(steal - steal0) /
                                                 static_cast<double>(total - total0)
                                           : 0.0);
    steal0 = steal;
    total0 = total;
    slice_end += slice;
  };
  while (next < end) {
    Clock::time_point now = Clock::now();
    if (now >= slice_end && r.backlog.size() < static_cast<std::size_t>(kSlices)) end_slice();
    // Behind schedule, send at most a burst before answers are reaped again:
    // a sender that never drains its responses stalls both socket buffers.
    int burst = 0;
    for (; next <= now && next < end && burst < kMaxBurst; ++burst) {
      const std::uint64_t id = next_id_++;
      scheduled.push_back(next);
      done.push_back(0);
      ++in_flight;
      ++r.ledger.sent;
      r.lag_ms.push_back(ms_between(next, Clock::now()));
      if (const auto immediate = target_.send(id, pick_input()))
        resolve(id, *immediate, Clock::now());
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s(rng_)));
    }
    target_.flush();
    if (in_flight > backlog_cap) {
      r.aborted = true;
      break;
    }
    reap(burst == kMaxBurst ? now : std::min(next, end));
  }
  if (!r.aborted && r.backlog.size() < static_cast<std::size_t>(kSlices)) end_slice();
  const Clock::time_point drain_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(drain_s));
  while (in_flight > 0 && Clock::now() < drain_end)
    reap(std::min(drain_end, Clock::now() + std::chrono::milliseconds(5)));
  r.ledger.lost = in_flight;
  r.generator_cpu_s = thread_cpu_s() - cpu0;
  total_.add(r.ledger);
  return r;
}

double LoadGen::closed_loop(int n, int window) {
  const std::uint64_t base = next_id_;
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  Ledger l;
  int issued = 0, resolved = 0;
  const auto resolve = [&](std::uint64_t id, Outcome o) {
    const std::size_t k = static_cast<std::size_t>(id - base);
    if (id < base || k >= done.size() || done[k]) return;
    done[k] = 1;
    ++resolved;
    l.count(o);
  };
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point give_up = t0 + std::chrono::seconds(60);
  while (resolved < n && Clock::now() < give_up) {
    while (issued < n && issued - resolved < window) {
      const std::uint64_t id = next_id_++;
      ++issued;
      ++l.sent;
      if (const auto immediate = target_.send(id, pick_input())) resolve(id, *immediate);
    }
    target_.flush();
    replies_.clear();
    target_.poll(replies_, Clock::now() + std::chrono::milliseconds(5));
    for (const Reply& rep : replies_) resolve(rep.id, rep.outcome);
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  l.lost = static_cast<std::uint64_t>(issued - resolved);
  total_.add(l);
  return wall;
}

double StepResult::quiet(double q) const {
  const int n = slice_steal.empty() ? 1 : static_cast<int>(slice_steal.size());
  std::vector<char> keep(static_cast<std::size_t>(n), 1);
  if (!slice_steal.empty()) {
    const double cut = percentile(slice_steal, kQuietShare);
    for (int i = 0; i < n; ++i) keep[static_cast<std::size_t>(i)] = slice_steal[i] <= cut;
  }
  std::vector<double> kept;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    const int s = std::clamp(static_cast<int>(sched_s[i] / seconds * n), 0, n - 1);
    if (keep[static_cast<std::size_t>(s)]) kept.push_back(latency_ms[i]);
  }
  return percentile(kept, q);
}

double StepResult::backlog_growth() const {
  const std::size_t half = backlog.size() / 2;
  if (half == 0) return 0;
  const std::vector<double> first(backlog.begin(), backlog.begin() + static_cast<long>(half));
  const std::vector<double> second(backlog.begin() + static_cast<long>(half), backlog.end());
  return median(second) - median(first);
}

bool step_sustainable(const StepResult& r, double limit_ms) {
  const double ok_share =
      r.ledger.sent ? static_cast<double>(r.ledger.ok) / static_cast<double>(r.ledger.sent) : 0;
  // A queue that builds up over the step grows by more than the work the
  // latency limit allows to be in flight. The backlog is judged on medians
  // over the step and the tail on its quieter slices, so one stall of the
  // host does not decide a step.
  const double allowed_growth = std::max(32.0, r.offered_rps * limit_ms / 1000.0);
  return !r.aborted && ok_share >= 0.99 && r.quiet(0.99) <= limit_ms &&
         r.backlog_growth() <= allowed_growth;
}

StepResult join_steps(const std::vector<StepResult>& steps) {
  StepResult j;
  for (const StepResult& s : steps) {
    j.offered_rps = s.offered_rps;
    j.ledger.add(s.ledger);
    // A step cut short by its backlog cap keeps its scheduled length, so
    // its slices stay equal to the others'.
    for (std::size_t i = 0; i < s.latency_ms.size(); ++i) {
      j.latency_ms.push_back(s.latency_ms[i]);
      j.sched_s.push_back(j.seconds + std::clamp(s.sched_s[i], 0.0, 0.999999 * s.seconds));
    }
    j.lag_ms.insert(j.lag_ms.end(), s.lag_ms.begin(), s.lag_ms.end());
    j.slice_steal.insert(j.slice_steal.end(), s.slice_steal.begin(), s.slice_steal.end());
    j.slice_steal.resize(j.slice_steal.size() + kSlices - s.slice_steal.size(), 100.0);
    j.generator_cpu_s += s.generator_cpu_s;
    j.aborted = j.aborted || s.aborted;
    j.seconds += s.seconds;
  }
  return j;
}

double quiet_median(const std::vector<double>& values, const std::vector<double>& steal) {
  const double cut = percentile(steal, kQuietShare);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size() && i < steal.size(); ++i)
    if (steal[i] <= cut) kept.push_back(values[i]);
  return median(kept);
}

double LoadGen::search_capacity(double estimate, double limit_ms, int steps, double step_s) {
  double lo = 0.25 * estimate, hi = 1.75 * estimate;
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    const auto cap = static_cast<std::size_t>(mid * limit_ms / 1000.0 * 8 + 256);
    const StepResult r = open_loop(mid, step_s, cap, 5);
    const bool ok = step_sustainable(r, limit_ms);
    std::fprintf(stderr,
                 "  capacity step %d: %.0f/s -> ok %llu/%llu p99 %.2f (quiet %.2f) ms backlog "
                 "growth %.0f lag99 %.3f ms %s\n",
                 i, mid, static_cast<unsigned long long>(r.ledger.ok),
                 static_cast<unsigned long long>(r.ledger.sent), r.p99(), r.quiet(0.99),
                 r.backlog_growth(), r.lag_p99(),
                 ok ? "holds" : "fails");
    (ok ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace perfbench
