// engine_vit — open-loop Poisson arrivals into InferenceEngine::submit, in
// process, over the bench-topology ViT at W2-A2-R16 cold-started from a
// checkpoint the benchmark writes. Traffic mix: 50% sc-lut, 25% w2a2-packed,
// 25% fp32.

#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "profile.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "runtime/tf_cache.h"
#include "serialize/model_io.h"
#include "serving.h"
#include "vit/dataset.h"
#include "vit/servable.h"
#include "sc/softmax_iter.h"

namespace perfbench {

namespace {

using namespace ascend;

constexpr int kClasses = 10;
constexpr int kInputs = 48;       ///< distinct images requests draw from
constexpr int kMaxBatch = 16;
constexpr int kForwards = 2;      ///< concurrent batch forwards
constexpr int kScPoolThreads = 1; ///< shared SC-hook pool (the caller joins in)
const char* const kVariants[] = {"sc-lut", "w2a2-packed", "fp32"};

vit::ScInferenceConfig sc_config() {
  vit::ScInferenceConfig c;
  c.softmax.bx = 8;
  c.softmax.alpha_x = 1.0;
  c.softmax.by = 32;
  c.softmax.k = 3;
  c.softmax.s1 = 4;
  c.softmax.s2 = 2;
  c.softmax.alpha_y = 3.0 / 32;
  c.use_sc_gelu = true;
  c.gelu_bsl = 16;
  c.gelu_range = 4.0;
  return c;
}

runtime::RequestOptions route(const char* variant) {
  runtime::RequestOptions o;
  o.variant = variant;
  return o;
}

vit::VitConfig topology() { return vit::VitConfig::bench_topology(kClasses); }

/// The served model: seeded weights, W2-A2-R16 with every quantizer
/// calibrated by one eval-mode forward.
void write_checkpoint(std::uint64_t seed, const std::string& path) {
  vit::VisionTransformer model(topology(), seed);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  const vit::Dataset calib = vit::make_synthetic_vision(32, kClasses, seed + 1);
  (void)model.forward(calib.images, /*training=*/false);
  model.save(path);
}

/// Everything the engine serves from. Members destroy bottom-up: the engine
/// before the registry whose servables use the pool and the LUT cache.
struct World {
  std::string ckpt;
  runtime::TfCache cache;
  std::unique_ptr<runtime::ThreadPool> sc_pool;
  vit::ScInferenceConfig sc_cfg = sc_config();
  vit::ScServableOptions sc_opts;
  std::shared_ptr<runtime::ModelRegistry> registry;
  std::unique_ptr<runtime::InferenceEngine> engine;
  std::map<std::string, double> cold_start_ms;
  Clock::time_point ready{};

  ~World() {
    engine.reset();
    registry.reset();
    if (!ckpt.empty()) ::unlink(ckpt.c_str());
  }
};

runtime::VariantKind kind_of(const std::string& v) {
  if (v == "fp32") return runtime::VariantKind::kFp32;
  if (v == "w2a2-packed") return runtime::VariantKind::kPackedTernary;
  return runtime::VariantKind::kScLut;
}

/// Set-up, timed as setup_s: model, checkpoint, cold start of every variant
/// (LUT tabulation included), engine, first answer per variant.
std::unique_ptr<World> set_up(const Args& args, bool traced) {
  std::fprintf(stderr,
               "  engine_vit: %d concurrent forwards, max batch %d, SC-hook pool %d worker, "
               "generator 1 thread\n",
               kForwards, kMaxBatch, kScPoolThreads);
  auto w = std::make_unique<World>();
  w->ckpt = args.work_dir + "/engine_vit." + std::to_string(::getpid()) + ".ckpt";
  write_checkpoint(args.seed, w->ckpt);
  w->sc_pool = std::make_unique<runtime::ThreadPool>(kScPoolThreads);
  w->sc_opts.pool = w->sc_pool.get();
  w->sc_opts.cache = &w->cache;
  runtime::RegisterFromFileOptions from_file;
  from_file.sc_config = &w->sc_cfg;
  from_file.sc_options = &w->sc_opts;
  w->registry = std::make_shared<runtime::ModelRegistry>();
  for (const char* v : kVariants) {
    const Clock::time_point t0 = Clock::now();
    w->registry->register_from_file(v, w->ckpt, kind_of(v), from_file);
    w->cold_start_ms[v] = ms_between(t0, Clock::now());
  }
  runtime::EngineOptions eo;
  eo.max_batch = kMaxBatch;
  eo.max_delay = std::chrono::microseconds(1000);
  eo.concurrent_forwards = kForwards;
  eo.max_pending = 1 << 15;
  eo.overflow = runtime::OverflowPolicy::kReject;
  eo.default_variant = "fp32";
  eo.trace.enabled = traced;
  eo.trace.ring_size = 1024;
  w->engine = std::make_unique<runtime::InferenceEngine>(w->registry, eo);
  const vit::Dataset first = vit::make_synthetic_vision(1, kClasses, args.seed + 2);
  const std::vector<float> img(first.images.data(), first.images.data() + first.images.size());
  for (const char* v : kVariants) (void)w->engine->submit(img, route(v)).get();
  w->ready = Clock::now();
  return w;
}

struct Oracle {
  std::vector<std::vector<float>> images;
  std::map<std::string, std::vector<int>> labels;  ///< variant -> label per image
};

int argmax(const nn::Tensor& logits) {
  int best = 0;
  for (int c = 1; c < logits.dim(1); ++c)
    if (logits.at(0, c) > logits.at(0, best)) best = c;
  return best;
}

/// Reference labels: each image alone through its variant's servable; the
/// sc-lut reference is the bit-true circuit-emulated servable.
Oracle make_oracle(const World& w, std::uint64_t seed) {
  Oracle o;
  const vit::Dataset data = vit::make_synthetic_vision(kInputs, kClasses, seed ^ 0x5eedULL);
  const int pixels = data.images.dim(1);
  runtime::ModelRegistry emulated;
  vit::ScServableOptions emu_opts = w.sc_opts;
  emu_opts.use_tf_cache = false;
  runtime::RegisterFromFileOptions from_file;
  from_file.sc_config = &w.sc_cfg;
  from_file.sc_options = &emu_opts;
  emulated.register_from_file("sc-emulated", w.ckpt, runtime::VariantKind::kScEmulated,
                              from_file);
  for (int i = 0; i < kInputs; ++i) {
    const float* row = data.images.data() + static_cast<std::size_t>(i) * pixels;
    o.images.emplace_back(row, row + pixels);
    const nn::Tensor one = nn::Tensor::borrow({1, pixels}, row);
    o.labels["fp32"].push_back(argmax(w.registry->get("fp32")->infer(one)));
    o.labels["w2a2-packed"].push_back(argmax(w.registry->get("w2a2-packed")->infer(one)));
    o.labels["sc-lut"].push_back(argmax(emulated.get("sc-emulated")->infer(one)));
  }
  return o;
}

class EngineTarget final : public Target {
 public:
  EngineTarget(runtime::InferenceEngine& engine, const Oracle& oracle, std::uint64_t seed)
      : engine_(engine), oracle_(oracle), rng_(seed) {}

  std::optional<Outcome> send(std::uint64_t id, int input) override {
    // 50% sc-lut, 25% w2a2-packed, 25% fp32.
    const int pick = static_cast<int>(rng_() % 4);
    const char* v = kVariants[pick < 2 ? 0 : pick - 1];
    const Clock::time_point t0 = Clock::now();
    try {
      auto fut = engine_.submit(oracle_.images[static_cast<std::size_t>(input)], route(v));
      if (record) submit_us.push_back(us_between(t0, Clock::now()));
      pending_.push_back({id, input, v, std::move(fut)});
    } catch (const runtime::QueueFullError&) {
      return Outcome::kRefused;
    } catch (...) {
      return Outcome::kFailed;
    }
    return std::nullopt;
  }

  void poll(std::vector<Reply>& out, Clock::time_point until) override {
    for (;;) {
      for (std::size_t i = 0; i < pending_.size();) {
        Pending& p = pending_[i];
        if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point at = Clock::now();
        Outcome o = Outcome::kFailed;
        try {
          const runtime::Prediction pred = p.future.get();
          const int want = oracle_.labels.at(p.variant)[static_cast<std::size_t>(p.input)];
          o = pred.label == want && pred.variant == p.variant ? Outcome::kOk : Outcome::kWrong;
          if (record) queue_ms.push_back(pred.queue_ms);
        } catch (...) {  // deadline, shutdown, injected fault: a failed request
        }
        out.push_back({p.id, o, at});
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
      }
      const Clock::time_point now = Clock::now();
      if (!out.empty() || now >= until) return;
      std::this_thread::sleep_for(std::min<Clock::duration>(until - now, std::chrono::microseconds(50)));
    }
  }

  int inputs() const override { return kInputs; }

  bool record = false;                  ///< trace mode: keep per-request timings
  std::vector<double> submit_us, queue_ms;

 private:
  struct Pending {
    std::uint64_t id;
    int input;
    const char* variant;
    std::future<runtime::Prediction> future;
  };
  runtime::InferenceEngine& engine_;
  const Oracle& oracle_;
  std::mt19937_64 rng_;
  std::vector<Pending> pending_;
};

/// The bulk job: 200 requests with 4 in flight, a closed loop the batcher
/// serves well below saturation, so its time follows per-request latency.
/// The probe: 1500 requests with 4 full batches in flight, saturating.
constexpr BulkShape kBulk{.ops = 200, .window = 4};
constexpr BulkShape kProbe{.ops = 1500, .window = 4 * kMaxBatch};

int run_end_to_end(const Args& args) {
  std::unique_ptr<World> w = set_up(args, /*traced=*/false);
  const double setup = setup_seconds(args, w->ready);
  if (args.setup_probe) {
    std::printf("setup_s %.9f\n", setup);
    return 0;
  }
  const Oracle oracle = make_oracle(*w, args.seed);
  EngineTarget target(*w->engine, oracle, args.seed * 7 + 1);
  LoadGen gen(target, args.seed);
  Report rep;
  rep.add("setup_s", median_setup(args, setup), "s");
  const Ledger total = measure_serving(gen, args, kBulk, rep);
  w.reset();
  rep.emit(total.wrong == 0 && total.lost == 0 && total.balanced(), total.sent, total.not_ok());
  return 0;
}

/// Per-row cost of the LUT-served SC softmax (µs) and per-element cost of
/// the LUT-served GELU (ns), plus a cold build of both tables (ms).
void report_tf_cache(const World& w, std::uint64_t seed, SpanLog& log, Report& rep) {
  sc::SoftmaxIterConfig sm = w.sc_cfg.softmax;
  sm.m = topology().tokens();
  runtime::TfCache cold;
  double build_ms;
  {
    Scoped span(&log, "runtime.tf_cache.setup_build");
    const Clock::time_point t0 = Clock::now();
    (void)cold.softmax(sm);
    (void)cold.gelu(w.sc_cfg.gelu_bsl, -w.sc_cfg.gelu_range, w.sc_cfg.gelu_range, 16);
    build_ms = ms_between(t0, Clock::now());
  }
  const runtime::SoftmaxLut& lut = cold.softmax(sm);
  const auto rows = sc::sample_attention_logits(sm.m, 256, seed);
  std::vector<double> out(static_cast<std::size_t>(sm.m));
  std::vector<double> row_us;
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    Scoped span(&log, "runtime.tf_cache.softmax_rows");
    const Clock::time_point t0 = Clock::now();
    for (const auto& r : rows) lut(r.data(), out.data());
    row_us.push_back(us_between(t0, Clock::now()) / static_cast<double>(rows.size()));
    do_not_optimize(out[0]);
  }
  const runtime::GateSiLut& gelu = cold.gelu(w.sc_cfg.gelu_bsl, -w.sc_cfg.gelu_range,
                                             w.sc_cfg.gelu_range, 16);
  std::vector<double> xs(4096);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-5, 5);
  for (double& x : xs) x = u(rng);
  std::vector<double> elem_ns;
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    Scoped span(&log, "runtime.tf_cache.gelu_elems");
    const Clock::time_point t0 = Clock::now();
    double sum = 0;
    for (double x : xs) sum += gelu(x);
    elem_ns.push_back(1000 * us_between(t0, Clock::now()) / static_cast<double>(xs.size()));
    do_not_optimize(sum);
  }
  rep.add("runtime.tf_cache.softmax_row_us", median(row_us), "us");
  rep.add("runtime.tf_cache.gelu_elem_ns", median(elem_ns), "ns");
  rep.add("runtime.tf_cache.setup_build_ms", build_ms, "ms");
}

/// Forward op profile of every served variant, on private copies of the
/// checkpoint shaped like the registry's variants.
ProfileSummary report_profiles(const World& w, const Oracle& oracle, SpanLog& log, Report& rep) {
  ProfileSummary sum;
  const nn::Tensor batch = stack_images(oracle.images, kMaxBatch);
  for (const std::string& v : kProfileVariants) {
    std::unique_ptr<vit::VisionTransformer> model = vit::VisionTransformer::load(w.ckpt);
    std::shared_ptr<runtime::Servable> hooks;
    if (v == "fp32") model->apply_precision(vit::PrecisionSpec::fp());
    if (v == "sc-lut") hooks = vit::make_sc_servable_in_place(*model, w.sc_cfg, w.sc_opts, v);
    profile_variant(*model, v, batch, 40, log, rep, sum);
  }
  return sum;
}

int run_traced(const Args& args) {
  const double step_s = kFixedRateShare * args.seconds;
  const auto cap = static_cast<std::size_t>(args.low_rps * args.limit_ms / 1000.0 * 50 + 1024);
  // The same low-rate step untraced and traced: the difference is the
  // tracing overhead.
  double untraced_p50, capacity;
  Ledger untraced;
  {
    std::unique_ptr<World> w = set_up(args, /*traced=*/false);
    const Oracle oracle = make_oracle(*w, args.seed);
    EngineTarget target(*w->engine, oracle, args.seed * 7 + 1);
    LoadGen gen(target, args.seed);
    untraced_p50 = gen.open_loop(args.low_rps, step_s, cap).quiet(0.5);
    capacity = measure_capacity(gen, args, kProbe);
    untraced = gen.total();
  }

  SpanLog log;
  std::unique_ptr<World> w = set_up(args, /*traced=*/true);
  const Oracle oracle = make_oracle(*w, args.seed);
  EngineTarget target(*w->engine, oracle, args.seed * 7 + 1);
  target.record = true;
  LoadGen gen(target, args.seed);
  const runtime::EngineStats s0 = w->engine->stats();
  StepResult step;
  const StealClock steal;
  {
    Scoped span(&log, "loadgen.step");
    step = gen.open_loop(args.low_rps, step_s, cap);
  }
  Reconciliation rc;
  rc.steal_pct = steal.pct();
  const runtime::EngineStats s1 = w->engine->stats();

  // Engine-side phases of the most recent requests, from the engine's own
  // lifecycle stamps: queue (enqueue -> batch close), dispatch, forward,
  // completion.
  std::vector<double> forward_ms, close_to_done_ms;
  for (const runtime::trace::RequestTrace& t : w->engine->tracer().recent()) {
    const int req = static_cast<int>(log.spans().size());
    log.add("runtime.engine.request", -1, t.enqueue, t.complete);
    log.add("runtime.batcher.queue", req, t.enqueue, t.batch_close);
    log.add("runtime.engine.dispatch", req, t.batch_close, t.forward_start);
    log.add("runtime.engine.forward", req, t.forward_start, t.forward_end);
    log.add("runtime.engine.complete", req, t.forward_end, t.complete);
    forward_ms.push_back(ms_between(t.forward_start, t.forward_end));
    close_to_done_ms.push_back(ms_between(t.batch_close, t.complete));
  }
  const double batches = static_cast<double>(s1.batches - s0.batches);
  const double phase_sum = mean(step.lag_ms) + mean(target.submit_us) / 1000 +
                           mean(target.queue_ms) + mean(close_to_done_ms);
  rc.phase_ratio = phase_sum / mean(step.latency_ms);
  rc.overhead_pct = 100 * (step.quiet(0.5) - untraced_p50) / untraced_p50;
  std::fprintf(stderr, "  traced step: p50 %.3f ms (untraced %.3f), phase sum %.3f / %.3f ms\n",
               step.quiet(0.5), untraced_p50, phase_sum, mean(step.latency_ms));

  Report rep;
  report_zero(rep, kServeLayer);  // no front door on this workload's path
  rep.add("runtime.engine.queue_wait_ms.p50", percentile(target.queue_ms, 0.5), "ms");
  rep.add("runtime.engine.queue_wait_ms.p99", percentile(target.queue_ms, 0.99), "ms");
  rep.add("runtime.engine.forward_ms", median(forward_ms), "ms");
  rep.add("runtime.batcher.batch_fill",
          batches > 0 ? static_cast<double>(s1.images - s0.images) / batches : 0, "count");
  rep.add("runtime.batcher.full_batch_pct",
          batches > 0 ? 100.0 * static_cast<double>(s1.full_batches - s0.full_batches) / batches
                      : 0,
          "%");
  const ProfileSummary prof = report_profiles(*w, oracle, log, rep);
  rc.op_sum_ratio = prof.worst_ratio;
  rep.add("nn.gemm_gflops", prof.gemm_gflops, "GFLOP/s");
  report_tf_cache(*w, args.seed, log, rep);
  for (const char* v : kVariants)
    rep.add(std::string("serialize.cold_start_ms.") + v, w->cold_start_ms.at(v), "ms");
  // The sweep layers are not on this path either; paper_sweep's building
  // blocks are measured here so that the benchmark's workloads cover them.
  report_paper_sweep_layers(args, log, rep);
  report_trace(rep, &step, args.limit_ms, capacity, rc);

  Ledger total = gen.total();
  total.add(untraced);
  const bool ok = prof.bit_exact && total.wrong == 0 && total.lost == 0 &&
                  total.balanced();
  write_spans(log, args, "engine_vit");
  w.reset();
  rep.emit(ok, total.sent, total.not_ok());
  return 0;
}

}  // namespace

int run_engine_vit(const Args& args) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  return args.trace ? run_traced(args) : run_end_to_end(args);
}

}  // namespace perfbench
