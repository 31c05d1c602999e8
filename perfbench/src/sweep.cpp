// paper_sweep — closed-loop reproduction passes of the paper's softmax
// design studies: the Fig. 8 design-space sweep (Bx = 2 and 4, m = 64) and
// Table IV's FSM-softmax baseline MAE at 1024b under the per-row re-seeding
// protocol, both served through the transfer-function table cache. One pass
// is one operation; "low" load is one client running passes back to back,
// "high" load is two clients sharing the sweep pool, starting their passes
// together.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "core/dse.h"
#include "hw/cost_model.h"
#include "profile.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "sc/softmax_fsm.h"
#include "sc/softmax_iter.h"
#include "serving.h"

namespace perfbench {

namespace {

using namespace ascend;

constexpr int kM = 64;            ///< softmax row length (the paper's m)
constexpr int kMaeRows = 16;      ///< test rows per design
constexpr int kFsmBsl = 1024;     ///< Table IV's longest FSM bitstream
constexpr int kFsmRows = 2;       ///< FSM MAE rows (one table build per row seed)
constexpr int kOracleDesigns = 3; ///< designs per pass re-checked uncached
constexpr int kHighClients = 2;

struct PassResult {
  double seconds = 0;
  bool verified = false;
};

/// One reproduction pass (timed) followed by its oracle check (untimed).
PassResult run_pass(runtime::ThreadPool& pool, std::uint64_t pass_seed) {
  PassResult out;
  core::DseOptions opts;
  opts.pool = &pool;
  sc::FsmSoftmaxConfig fsm;
  fsm.bsl = kFsmBsl;
  fsm.seed = pass_seed * 0x9E3779B97F4A7C15ULL;
  const Clock::time_point t0 = Clock::now();
  core::DseResult sweeps[2] = {core::sweep_softmax_design_space(2, kM, kMaeRows, pass_seed, opts),
                               core::sweep_softmax_design_space(4, kM, kMaeRows, pass_seed, opts)};
  runtime::TfCache fsm_cache;
  const double fsm_mae = runtime::softmax_fsm_mae_cached(fsm, kFsmRows, pass_seed, fsm_cache,
                                                         runtime::FsmSeedMode::kPerRowSeeds);
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  // Oracle: sampled designs' cached MAE against the uncached emulator, and
  // the FSM column against sc::softmax_fsm_mae; both must match bit for bit.
  std::mt19937_64 rng(pass_seed);
  bool ok = fsm_mae == sc::softmax_fsm_mae(fsm, kFsmRows, pass_seed);
  for (const core::DseResult& r : sweeps) {
    ok = ok && !r.points.empty() && !r.pareto.empty();
    for (int i = 0; i < kOracleDesigns && !r.points.empty(); ++i) {
      const core::DsePoint& p = r.points[rng() % r.points.size()];
      ok = ok && p.mae == sc::softmax_sc_mae(p.cfg, kMaeRows, pass_seed);
    }
  }
  out.verified = ok;
  return out;
}

struct Phase {
  std::vector<double> latency_ms;
  std::size_t passes = 0, verified = 0;
  double wall_s = 0;
};

/// Rounds of `clients` passes started together, back to back until
/// `seconds` elapse, added to `ph`: a closed loop whose clients run in
/// lockstep. Clients left to run freely drift between two steady patterns,
/// their serial FSM parts overlapping or interleaving, about 25% apart in
/// pass time.
void closed_loop(Phase& ph, runtime::ThreadPool& pool, int clients, double seconds,
                 std::uint64_t seed, std::uint64_t& next_pass) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(seconds));
  std::vector<PassResult> round(static_cast<std::size_t>(clients));
  while (Clock::now() < end) {
    const std::uint64_t first = seed * 1000003ULL + next_pass;
    next_pass += static_cast<std::uint64_t>(clients);
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c)
      threads.emplace_back([&, c] { round[c] = run_pass(pool, first + c); });
    round[0] = run_pass(pool, first);
    for (auto& t : threads) t.join();
    for (const PassResult& r : round) {
      ph.latency_ms.push_back(r.seconds * 1000);
      ++ph.passes;
      ph.verified += r.verified;
    }
  }
  ph.wall_s += std::chrono::duration<double>(Clock::now() - t0).count();
}

int run_end_to_end(const Args& args, runtime::ThreadPool& pool, double setup) {
  const StealClock steal;
  std::uint64_t next_pass = 0;
  // The loads alternate in rounds, so that both draw on the whole run.
  const double chunk_s = 0.4 * args.seconds / kRounds;
  Phase low, high;
  for (int round = 0; round < kRounds; ++round) {
    closed_loop(low, pool, 1, chunk_s, args.seed, next_pass);
    closed_loop(high, pool, kHighClients, chunk_s, args.seed, next_pass);
  }
  for (const Phase* p : {&low, &high})
    std::fprintf(stderr, "  %zu passes (%zu verified) in %.2f s: p50 %.1f ms p99 %.1f ms\n",
                 p->passes, p->verified, p->wall_s, percentile(p->latency_ms, 0.5),
                 percentile(p->latency_ms, 0.99));
  std::fprintf(stderr, "  host steal over the run: %.1f%%\n", steal.pct());
  Report rep;
  rep.add("setup_s", median_setup(args, setup), "s");
  rep.add("p50_ms_low", percentile(low.latency_ms, 0.50), "ms");
  rep.add("p50_ms_high", percentile(high.latency_ms, 0.50), "ms");
  const std::size_t passes = low.passes + high.passes, verified = low.verified + high.verified;
  rep.add("ok_pct", passes ? 100.0 * static_cast<double>(verified) / passes : 0, "%");
  rep.add("pass_s", median(low.latency_ms) / 1000, "s");
  rep.emit(passes > 0 && verified == passes, passes, passes - verified);
  return 0;
}

/// Per-layer costs of the sweep's building blocks on designs sampled from a
/// real sweep result.
void report_sweep_layers(runtime::ThreadPool& pool, std::uint64_t seed, SpanLog& log,
                         Report& rep) {
  core::DseOptions pooled;
  pooled.pool = &pool;
  core::DseOptions serial;
  serial.threads = 1;
  double t_pool, t_serial;
  core::DseResult res;
  {
    Scoped span(&log, "core.dse.sweep_pool");
    const Clock::time_point t0 = Clock::now();
    res = core::sweep_softmax_design_space(2, kM, kMaeRows, seed, pooled);
    t_pool = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  {
    Scoped span(&log, "core.dse.sweep_serial");
    const Clock::time_point t0 = Clock::now();
    (void)core::sweep_softmax_design_space(2, kM, kMaeRows, seed, serial);
    t_serial = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  rep.add("core.dse.designs_per_s", static_cast<double>(res.points.size()) / t_pool, "1/s");
  // The calling thread claims chunks alongside the pool's workers.
  rep.add("core.dse.parallel_efficiency", t_serial / (t_pool * (pool.size() + 1)), "ratio");

  std::mt19937_64 rng(seed);
  std::vector<double> build_us, mae_us, cost_us, row_us;
  const auto rows = sc::sample_attention_logits(kM, 4, seed);
  for (int i = 0; i < 24; ++i) {
    const sc::SoftmaxIterConfig& cfg = res.points[rng() % res.points.size()].cfg;
    runtime::TfCache cache;
    const auto timed_us = [&](const char* name, auto&& fn) {
      Scoped span(&log, name);
      const Clock::time_point t0 = Clock::now();
      fn();
      return us_between(t0, Clock::now());
    };
    build_us.push_back(timed_us("runtime.tf_cache.softmax_build", [&] { (void)cache.softmax(cfg); }));
    mae_us.push_back(timed_us("runtime.tf_cache.softmax_mae", [&] {
      (void)runtime::softmax_sc_mae_cached(cfg, kMaeRows, seed, cache);
    }));
    cost_us.push_back(timed_us("hw.cost", [&] { (void)hw::cost_softmax_iter(cfg); }));
    for (const auto& r : rows)
      row_us.push_back(timed_us("sc.softmax_iter.emulate_row",
                                [&] { (void)sc::softmax_iterative_sc(r, cfg); }));
  }
  std::vector<double> fsm_ms;
  for (int r = 0; r < kFsmRows; ++r) {
    sc::FsmSoftmaxConfig fsm;
    fsm.bsl = kFsmBsl;
    fsm.seed = seed + 0x1234567ULL * static_cast<std::uint64_t>(r);
    runtime::TfCache cache;
    Scoped span(&log, "runtime.tf_cache.fsm_build");
    const Clock::time_point t0 = Clock::now();
    (void)cache.softmax_fsm(fsm);
    fsm_ms.push_back(ms_between(t0, Clock::now()));
  }
  rep.add("runtime.tf_cache.softmax_build_us", median(build_us), "us");
  rep.add("runtime.tf_cache.softmax_mae_us", median(mae_us), "us");
  rep.add("runtime.tf_cache.fsm_build_ms", median(fsm_ms), "ms");
  rep.add("hw.cost_us", median(cost_us), "us");
  rep.add("sc.softmax_iter.emulate_row_us", median(row_us), "us");
}

int run_traced(const Args& args, runtime::ThreadPool& pool) {
  // Untraced passes, then traced ones: the same pass split into its three
  // studies under spans. The difference of the medians is the overhead.
  std::vector<double> untraced_ms, traced_ms, parts_ms;
  std::size_t passes = 0, verified = 0;
  for (int i = 0; i < 3; ++i) {
    const PassResult r = run_pass(pool, args.seed * 1000003ULL + static_cast<std::uint64_t>(i));
    untraced_ms.push_back(r.seconds * 1000);
    ++passes;
    verified += r.verified;
  }
  SpanLog log;
  const StealClock steal;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t pass_seed = args.seed * 1000003ULL + 100 + static_cast<std::uint64_t>(i);
    core::DseOptions opts;
    opts.pool = &pool;
    sc::FsmSoftmaxConfig fsm;
    fsm.bsl = kFsmBsl;
    fsm.seed = pass_seed * 0x9E3779B97F4A7C15ULL;
    double part_sum = 0;
    const auto part = [&](const char* name, auto&& fn) {
      Scoped span(&log, name);
      const Clock::time_point t0 = Clock::now();
      fn();
      part_sum += ms_between(t0, Clock::now());
    };
    const int pass_span = log.open("sweep.pass");
    const Clock::time_point t0 = Clock::now();
    core::DseResult r2, r4;
    part("core.dse.sweep_bx2",
         [&] { r2 = core::sweep_softmax_design_space(2, kM, kMaeRows, pass_seed, opts); });
    part("core.dse.sweep_bx4",
         [&] { r4 = core::sweep_softmax_design_space(4, kM, kMaeRows, pass_seed, opts); });
    double fsm_mae = 0;
    part("table4.fsm_mae", [&] {
      runtime::TfCache cache;
      fsm_mae = runtime::softmax_fsm_mae_cached(fsm, kFsmRows, pass_seed, cache,
                                                runtime::FsmSeedMode::kPerRowSeeds);
    });
    traced_ms.push_back(ms_between(t0, Clock::now()));
    log.close(pass_span);
    parts_ms.push_back(part_sum);
    ++passes;
    verified += fsm_mae == sc::softmax_fsm_mae(fsm, kFsmRows, pass_seed) && !r2.points.empty() &&
                !r4.points.empty();
  }

  Report rep;
  report_zero(rep, kServeLayer);
  report_zero(rep, kEngineLayer);
  for (const std::string& v : kProfileVariants) {
    report_profile(rep, v, "b1", nullptr);
    report_profile(rep, v, "bmax", nullptr);
  }
  report_zero(rep, kModelLayer);
  report_sweep_layers(pool, args.seed, log, rep);
  Reconciliation rc;
  rc.profiled = false;
  rc.phase_ratio = mean(parts_ms) / mean(traced_ms);
  rc.overhead_pct = 100 * (median(traced_ms) - median(untraced_ms)) / median(untraced_ms);
  rc.steal_pct = steal.pct();
  report_trace(rep, nullptr, 0, 0, rc);
  write_spans(log, args, "paper_sweep");
  rep.emit(verified == passes, passes, passes - verified);
  return 0;
}

}  // namespace

/// The client thread works on its own sweep's chunks too: with nproc - 1
/// workers one client keeps every CPU busy and no more.
int sweep_workers() { return std::max(1, host_cpus() - 1); }

void report_paper_sweep_layers(const Args& args, SpanLog& log, Report& rep) {
  runtime::ThreadPool pool(sweep_workers());
  report_sweep_layers(pool, args.seed, log, rep);
}

int run_paper_sweep(const Args& args) {
  const int threads = sweep_workers();
  runtime::ThreadPool pool(threads);
  const double setup = setup_seconds(args, Clock::now());
  if (args.setup_probe) {
    std::printf("setup_s %.9f\n", setup);
    return 0;
  }
  std::fprintf(stderr, "paper_sweep: sweep pool %d workers\n", threads);
  return args.trace ? run_traced(args, pool) : run_end_to_end(args, pool, setup);
}

}  // namespace perfbench
