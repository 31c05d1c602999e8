#pragma once
// serving.h — the end-to-end measurement shared by the two serving
// workloads (wire_tiny, engine_vit) and the workload entry points.

#include <vector>

#include "common.h"
#include "loadgen.h"

namespace perfbench {

/// Closed-loop pass shape: `ops` operations with `window` in flight.
struct BulkShape {
  int ops = 1000;
  int window = 64;
};

/// The end-to-end run is kRounds rounds; each runs kPassesPerRound bulk
/// passes and one chunk at the low and one at the high fixed rate.
/// Spreading every measurement over the whole run lets each draw on the
/// run's quiet spells.
inline constexpr int kRounds = 10;
inline constexpr int kPassesPerRound = 2;
inline constexpr double kFixedRateShare = 0.4;  ///< of --seconds, per fixed rate
inline constexpr int kCapacitySteps = 6;
inline constexpr double kCapacityStepShare = 0.05;  ///< of --seconds, per search step

/// The rounds. Adds every end-to-end metric except setup_s. Returns the
/// ledger.
Ledger measure_serving(LoadGen& gen, const Args& args, const BulkShape& bulk, Report& rep);

/// loadgen.capacity_rps of a traced run: one saturating closed-loop pass
/// (`probe`) whose throughput brackets the capacity search, then the search.
double measure_capacity(LoadGen& gen, const Args& args, const BulkShape& probe);

/// setup_s: median of the launcher's probes; without probes, this
/// process's own set-up.
double median_setup(const Args& args, double own);

/// Per-layer metrics a workload does not exercise report 0.
void report_zero(Report& rep, const std::vector<std::pair<const char*, const char*>>& metrics);

/// Per-layer metric groups (name, unit), so every workload prints them all.
extern const std::vector<std::pair<const char*, const char*>> kServeLayer;
extern const std::vector<std::pair<const char*, const char*>> kEngineLayer;
extern const std::vector<std::pair<const char*, const char*>> kModelLayer;
extern const std::vector<std::pair<const char*, const char*>> kSweepLayer;

/// Profiled variants, in report order.
inline const std::vector<std::string> kProfileVariants = {"fp32", "w2a2-packed", "sc-lut"};

/// Tolerance on trace.phase_sum_ratio: the separately measured phases must
/// add up to the client-observed mean latency within this share.
inline constexpr double kPhaseSumTolerance = 0.25;

/// Everything the traced run reconciles, reported as trace.* metrics.
struct Reconciliation {
  bool profiled = true;       ///< the run profiled a forward (op_sum_ratio applies)
  double op_sum_ratio = 1;    ///< vit.op_sum_ratio (the profile farthest from 1)
  double phase_ratio = 1;     ///< trace.phase_sum_ratio
  double phase_floor = 1 - kPhaseSumTolerance;  ///< lowest phase_ratio accepted
  double overhead_pct = 0;    ///< traced minus untraced p50, in % of untraced
  double steal_pct = 0;       ///< host.steal_pct over the traced step
  /// Both ratios within their stated tolerances.
  bool holds() const;
};

/// The loadgen.*, trace.* and host.* per-layer metrics of a traced step;
/// `capacity_rps` from measure_capacity (0 where there is none).
void report_trace(Report& rep, const StepResult* step, double limit_ms, double capacity_rps,
                  const Reconciliation& rc);

/// Write the traced run's spans to <work-dir>/trace-<workload>-<seed>.jsonl.
void write_spans(const SpanLog& log, const Args& args, const char* workload);

int run_wire_tiny(const Args& args);
int run_engine_vit(const Args& args);
int run_paper_sweep(const Args& args);
/// The paper_sweep per-layer metrics (core.dse.*, hw.cost_us,
/// sc.softmax_iter.*, tf_cache table builds), on a sweep pool of their own
/// inside another workload's traced run.
void report_paper_sweep_layers(const Args& args, SpanLog& log, Report& rep);

}  // namespace perfbench
