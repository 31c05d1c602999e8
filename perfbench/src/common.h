#pragma once
// common.h — shared plumbing of the repository benchmark: arguments, the
// result line, order statistics, CPU clocks and the in-memory span log.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Setup probe: set up, report setup_s on stdout, exit (no measurement).
  bool setup_probe = false;
  /// CLOCK_MONOTONIC time (ns) at which the launcher spawned this process;
  /// setup_s is measured from it. 0: measured from main().
  std::int64_t spawn_ns = 0;
  /// setup_s values measured by the launcher's setup probes of this run.
  std::vector<double> prior_setup_s;
  /// Scratch directory for checkpoints and the span dump.
  std::string work_dir = ".";
  /// Workload constants (perfbench/workloads.json, flattened by run.py).
  double low_rps = 0, high_rps = 0, limit_ms = 0;
};

/// Seconds from process spawn (or main) to `ready`.
double setup_seconds(const Args& args, Clock::time_point ready);

/// Nearest-rank percentile, q in [0, 1]. Sorts a copy. 0 for no samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

double thread_cpu_s();

/// Keeps a timed loop's result observable so the loop is not optimized away.
void do_not_optimize(double v);

/// Metrics of one run plus the fields of the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Print the one-line JSON result (the last line of stdout).
  void emit(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Why an operation did not succeed; kOk only with a verified answer.
enum class Outcome { kOk, kRefused, kFailed, kWrong };

/// Every operation of a step ends in exactly one bucket:
/// sent == ok + refused + failed + wrong + lost.
struct Ledger {
  std::uint64_t sent = 0, ok = 0, refused = 0, failed = 0, wrong = 0, lost = 0;
  void add(const Ledger& o);
  void count(Outcome o);
  std::uint64_t not_ok() const { return refused + failed + wrong + lost; }
  bool balanced() const { return sent == ok + refused + failed + wrong + lost; }
};

/// In-memory span log: name, start, end, parent. Spans are recorded by the
/// benchmark's own code around calls into the program's public functions,
/// kept in memory, and written out once at the end of the traced run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, -1 at the root
    Clock::time_point begin, end;
  };

  /// Opens a span under the innermost open span of the calling thread.
  int open(const char* name);
  void close(int id);
  /// A span measured elsewhere (e.g. stamps read back from the engine).
  void add(const char* name, int parent, Clock::time_point b, Clock::time_point e);

  const std::vector<Span>& spans() const { return spans_; }
  /// Write the spans as JSON lines (name, parent, start/end µs from the first span).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;  ///< open spans (single-threaded use only)
};

/// RAII span on a SpanLog; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) : log_(log), id_(log ? log->open(name) : -1) {}
  ~Scoped() {
    if (log_) log_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Share (%) of host CPU time the hypervisor gave to other guests since
/// `since` was taken (/proc/stat steal over all fields); a noisy host shows
/// here, not in the program.
struct StealClock {
  StealClock();
  double pct() const;
  unsigned long long steal0 = 0, total0 = 0;
};

/// Host CPU ticks so far: stolen, and all (the first /proc/stat line).
void read_steal_ticks(unsigned long long& steal, unsigned long long& total);

/// Keeps every CPU out of its idle halt while it lives: one spinner thread
/// per CPU, pinned to it at SCHED_IDLE priority, so it runs only when no
/// other thread wants that CPU and gives way to any thread that wakes. On a
/// virtual machine a halted vCPU is woken through the hypervisor's
/// scheduler, and on a busy host that wake-up wait (reported as CPU steal)
/// lands on every hand-off between the program's threads; kept awake, the
/// vCPUs take the program's wake-ups at once. The host-side counterpart of
/// disabling deep idle states on a benchmark machine.
class AwakeCpus {
 public:
  AwakeCpus();
  ~AwakeCpus();
  AwakeCpus(const AwakeCpus&) = delete;
  AwakeCpus& operator=(const AwakeCpus&) = delete;
  /// Spinners that got their CPU and priority (the others exited). Read it
  /// late: the constructor does not wait for the spinners to start.
  int running() const { return running_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> running_{0};
  std::vector<std::thread> threads_;
};

/// Pin the OpenMP team and report the host's processor count.
int pin_openmp_team(int threads);
int host_cpus();

}  // namespace perfbench
