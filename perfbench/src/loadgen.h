#pragma once
// loadgen.h — the load generator: open-loop Poisson steps, closed-loop bulk
// passes and the sustainable-capacity search, over any Target.

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "common.h"

namespace perfbench {

/// One resolved operation as the generator saw it.
struct Reply {
  std::uint64_t id = 0;
  Outcome outcome = Outcome::kFailed;
  Clock::time_point at{};  ///< when the generator noticed the answer
};

/// The system under load. Single-threaded: only the generator thread calls it.
class Target {
 public:
  virtual ~Target() = default;
  /// Issue operation `id` on input `input`. Returns an outcome when the
  /// operation resolved synchronously (a refusal at admission), else nullopt.
  virtual std::optional<Outcome> send(std::uint64_t id, int input) = 0;
  /// Append resolved operations to `out`; waits no later than `until` when
  /// nothing is ready. Answers are checked against the oracle here.
  virtual void poll(std::vector<Reply>& out, Clock::time_point until) = 0;
  /// Push out operations sent since the last flush (targets may coalesce).
  virtual void flush() {}
  /// Number of distinct inputs operations draw from.
  virtual int inputs() const = 0;
};

struct StepResult {
  double offered_rps = 0;  ///< scheduled rate
  double seconds = 0;
  Ledger ledger;
  std::vector<double> latency_ms;  ///< ok operations, from scheduled send time
  std::vector<double> sched_s;     ///< their scheduled send time, s from step start
  std::vector<double> lag_ms;      ///< actual send time minus scheduled time
  double generator_cpu_s = 0;
  std::vector<std::size_t> backlog;  ///< in flight at the end of each slice
  std::vector<double> slice_steal;   ///< host CPU steal (%) during each slice
  bool aborted = false;         ///< backlog passed the cap; sending stopped early

  double p50() const { return percentile(latency_ms, 0.50); }
  double p99() const { return percentile(latency_ms, 0.99); }
  double lag_p99() const { return percentile(lag_ms, 0.99); }
  /// q-percentile of the latencies scheduled in the step's quiet slices:
  /// those whose host CPU steal is at or below that of the kQuietShare
  /// quantile slice. Other guests' bursts of CPU use then do not decide the
  /// figure; on a quiet host every slice is kept. Slices are equal shares
  /// of `seconds`, one per slice_steal entry.
  double quiet(double q) const;
  /// Median backlog of the step's second half minus that of its first half.
  double backlog_growth() const;
};

/// Equal slices of a step at whose ends backlog and host steal are sampled.
inline constexpr int kSlices = 20;
/// Share of a step's slices, the quietest by host steal, that latency
/// percentiles are taken over (ties included).
inline constexpr double kQuietShare = 0.25;
/// Most operations sent back to back before answers are reaped.
inline constexpr int kMaxBurst = 64;

class LoadGen {
 public:
  LoadGen(Target& target, std::uint64_t seed) : target_(target), rng_(seed) {}

  /// Open loop: Poisson arrivals at `rate` for `seconds`, regardless of
  /// answers; then waits up to `drain_s` for stragglers (the rest are lost).
  /// Sending stops early once more than `backlog_cap` operations are in flight.
  StepResult open_loop(double rate, double seconds, std::size_t backlog_cap, double drain_s = 10);
  /// Closed loop: `n` operations with `window` in flight. Returns wall seconds.
  double closed_loop(int n, int window);

  /// Highest offered rate (bisection over [1/4, 7/4] x `estimate`)
  /// at which a step of `step_s` keeps >= 99% ok, p99 <= limit_ms and no
  /// backlog beyond what the limit allows.
  double search_capacity(double estimate, double limit_ms, int steps, double step_s);

  /// Operations sent so far, in every step.
  const Ledger& total() const { return total_; }

 private:
  int pick_input();

  Target& target_;
  std::mt19937_64 rng_;
  std::uint64_t next_id_ = 1;
  Ledger total_;
  std::vector<Reply> replies_;
};

/// Whether a step meets the sustainable-rate conditions.
bool step_sustainable(const StepResult& r, double limit_ms);

/// Steps of one rate run at different times, joined into one step of their
/// summed length, so that quiet() chooses its slices across all of them.
StepResult join_steps(const std::vector<StepResult>& steps);

/// Median of `values` over the samples whose host steal is at or below the
/// kQuietShare quantile of `steal` (ties included): StepResult::quiet for
/// samples that are not latencies, such as whole closed-loop passes.
double quiet_median(const std::vector<double>& values, const std::vector<double>& steal);

}  // namespace perfbench
