#include "serving.h"

#include <cmath>
#include <cstdio>

#include "profile.h"

namespace perfbench {

const std::vector<std::pair<const char*, const char*>> kServeLayer = {
    {"serve.protocol.decode_us", "us"},     {"serve.protocol.encode_us", "us"},
    {"serve.shard_set.submit_us", "us"},    {"serve.shard_set.reject_pct", "%"},
    {"serve.server.bytes_per_req", "B"},    {"serve.outside_engine_ms.p50", "ms"},
    {"serve.outside_engine_ms.p99", "ms"},
};

const std::vector<std::pair<const char*, const char*>> kEngineLayer = {
    {"runtime.engine.queue_wait_ms.p50", "ms"}, {"runtime.engine.queue_wait_ms.p99", "ms"},
    {"runtime.engine.forward_ms", "ms"},        {"runtime.batcher.batch_fill", "count"},
    {"runtime.batcher.full_batch_pct", "%"},
};

const std::vector<std::pair<const char*, const char*>> kModelLayer = {
    {"runtime.tf_cache.softmax_row_us", "us"},
    {"runtime.tf_cache.gelu_elem_ns", "ns"},
    {"nn.gemm_gflops", "GFLOP/s"},
    {"serialize.cold_start_ms.fp32", "ms"},
    {"serialize.cold_start_ms.w2a2-packed", "ms"},
    {"serialize.cold_start_ms.sc-lut", "ms"},
    {"runtime.tf_cache.setup_build_ms", "ms"},
};

const std::vector<std::pair<const char*, const char*>> kSweepLayer = {
    {"core.dse.designs_per_s", "1/s"},          {"core.dse.parallel_efficiency", "ratio"},
    {"runtime.tf_cache.softmax_build_us", "us"}, {"runtime.tf_cache.softmax_mae_us", "us"},
    {"runtime.tf_cache.fsm_build_ms", "ms"},     {"hw.cost_us", "us"},
    {"sc.softmax_iter.emulate_row_us", "us"},
};

void report_zero(Report& rep, const std::vector<std::pair<const char*, const char*>>& metrics) {
  for (const auto& [name, unit] : metrics) rep.add(name, 0.0, unit);
}

double median_setup(const Args& args, double own) {
  return args.prior_setup_s.empty() ? own : median(args.prior_setup_s);
}

bool Reconciliation::holds() const {
  return (!profiled || std::abs(op_sum_ratio - 1) <= kOpSumTolerance) && phase_ratio >= phase_floor &&
         phase_ratio <= 1 + kPhaseSumTolerance;
}

void report_trace(Report& rep, const StepResult* step, double limit_ms, double capacity_rps,
                  const Reconciliation& rc) {
  // The generator fell behind when it sent later than a quarter of the
  // latency limit: such a run did not offer the load it claims.
  const double lag = step ? step->lag_p99() : 0;
  const bool on_schedule = !step || lag <= 0.25 * limit_ms;
  if (!on_schedule)
    std::fprintf(stderr, "  WARNING: generator behind schedule (lag p99 %.3f ms); run invalid\n",
                 lag);
  if (!rc.holds())
    std::fprintf(stderr, "  WARNING: layers do not reconcile (op sum %.3f, phase sum %.3f)\n",
                 rc.op_sum_ratio, rc.phase_ratio);
  rep.add("loadgen.capacity_rps", capacity_rps, "1/s");
  rep.add("loadgen.p99_ms", step ? step->quiet(0.99) : 0, "ms");
  rep.add("loadgen.lag_p99_ms", lag, "ms");
  rep.add("loadgen.cpu_s", step ? step->generator_cpu_s : 0, "s");
  rep.add("loadgen.on_schedule", on_schedule ? 1 : 0, "count");
  rep.add("vit.op_sum_ratio", rc.profiled ? rc.op_sum_ratio : 0, "ratio");
  rep.add("trace.phase_sum_ratio", rc.phase_ratio, "ratio");
  rep.add("trace.reconciled", rc.holds() ? 1 : 0, "count");
  rep.add("trace.overhead_pct", rc.overhead_pct, "%");
  rep.add("host.steal_pct", rc.steal_pct, "%");
}

void write_spans(const SpanLog& log, const Args& args, const char* workload) {
  const std::string path =
      args.work_dir + "/trace-" + workload + "-" + std::to_string(args.seed) + ".jsonl";
  if (log.write(path))
    std::fprintf(stderr, "  %zu spans written to %s\n", log.spans().size(), path.c_str());
}

Ledger measure_serving(LoadGen& gen, const Args& args, const BulkShape& bulk, Report& rep) {
  const StealClock run_steal;
  const double chunk_s = kFixedRateShare * args.seconds / kRounds;
  const auto cap_for = [&](double rate) {
    return static_cast<std::size_t>(rate * args.limit_ms / 1000.0 * 50 + 1024);
  };
  std::vector<double> pass_s, pass_steal;
  std::vector<StepResult> low_chunks, high_chunks;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPassesPerRound; ++i) {
      const StealClock steal;
      pass_s.push_back(gen.closed_loop(bulk.ops, bulk.window));
      pass_steal.push_back(steal.pct());
    }
    low_chunks.push_back(gen.open_loop(args.low_rps, chunk_s, cap_for(args.low_rps)));
    high_chunks.push_back(gen.open_loop(args.high_rps, chunk_s, cap_for(args.high_rps)));
  }
  const StepResult low = join_steps(low_chunks), high = join_steps(high_chunks);
  const double pass = quiet_median(pass_s, pass_steal);
  std::fprintf(stderr, "  bulk pass %.4f s (all passes %.4f s)\n", pass, median(pass_s));
  for (const StepResult* s : {&low, &high})
    std::fprintf(stderr,
                 "  fixed %.0f/s: sent %llu ok %llu p50 %.3f p99 %.3f (quiet %.3f %.3f) ms lag99 "
                 "%.3f ms cpu %.2f s\n",
                 s->offered_rps, static_cast<unsigned long long>(s->ledger.sent),
                 static_cast<unsigned long long>(s->ledger.ok), s->p50(), s->p99(),
                 s->quiet(0.5), s->quiet(0.99), s->lag_p99(),
                 s->generator_cpu_s);

  std::fprintf(stderr, "  host steal over the run: %.1f%%\n", run_steal.pct());
  const Ledger& total = gen.total();
  rep.add("p50_ms_low", low.quiet(0.50), "ms");
  rep.add("p50_ms_high", high.quiet(0.50), "ms");
  rep.add("ok_pct", total.sent ? 100.0 * static_cast<double>(total.ok) / total.sent : 0, "%");
  rep.add("pass_s", pass, "s");
  return total;
}

double measure_capacity(LoadGen& gen, const Args& args, const BulkShape& probe) {
  const double burst_rps = probe.ops / gen.closed_loop(probe.ops, probe.window);
  std::fprintf(stderr, "  saturating pass %.0f ops/s\n", burst_rps);
  return gen.search_capacity(burst_rps, args.limit_ms, kCapacitySteps,
                             kCapacityStepShare * args.seconds);
}

}  // namespace perfbench
