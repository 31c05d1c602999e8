#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {
const Clock::time_point g_main_start = Clock::now();

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double setup_seconds(const Args& args, Clock::time_point ready) {
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock the launcher stamps
  // the spawn with, so the two compare directly.
  if (args.spawn_ns > 0) {
    const auto ready_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(ready.time_since_epoch()).count();
    return 1e-9 * static_cast<double>(ready_ns - args.spawn_ns);
  }
  return std::chrono::duration<double>(ready - g_main_start).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

namespace {
volatile double g_sink = 0;
}
void do_not_optimize(double v) { g_sink = g_sink + v; }

void Report::add(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics_)
    if (m.first == name) throw std::logic_error("duplicate metric " + name);
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Report::emit(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].second.first);
    out += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Ledger::add(const Ledger& o) {
  sent += o.sent;
  ok += o.ok;
  refused += o.refused;
  failed += o.failed;
  wrong += o.wrong;
  lost += o.lost;
}

void Ledger::count(Outcome o) {
  switch (o) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kFailed: ++failed; break;
    case Outcome::kWrong: ++wrong; break;
  }
}

int SpanLog::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), Clock::now(), {}});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::add(const char* name, int parent, Clock::time_point b, Clock::time_point e) {
  spans_.push_back({name, parent, b, e});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_.front().begin;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
      << ", \"start_us\": " << us_between(t0, s.begin) << ", \"end_us\": " << us_between(t0, s.end)
      << "}\n";
  }
  return static_cast<bool>(f);
}

void read_steal_ticks(unsigned long long& steal, unsigned long long& total) {
  steal = total = 0;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    if (!(f >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
}

StealClock::StealClock() { read_steal_ticks(steal0, total0); }

double StealClock::pct() const {
  unsigned long long steal, total;
  read_steal_ticks(steal, total);
  return total > total0 ? 100.0 * static_cast<double>(steal - steal0) / (total - total0) : 0.0;
}

AwakeCpus::AwakeCpus() {
  for (int cpu = 0; cpu < host_cpus(); ++cpu)
    threads_.emplace_back([this, cpu] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_param idle{};
      // Never spin at normal priority or unpinned: such a spinner would
      // compete with the program instead of filling its idle time.
      const bool ok = pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) == 0 &&
                      pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
      if (!ok) return;
      ++running_;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
}

AwakeCpus::~AwakeCpus() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

int pin_openmp_team(int threads) {
#ifdef _OPENMP
  omp_set_dynamic(0);
  omp_set_num_threads(threads);
  return omp_get_max_threads();
#else
  (void)threads;
  return 1;
#endif
}

int host_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace perfbench
