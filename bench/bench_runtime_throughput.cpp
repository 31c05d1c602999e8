// bench_runtime_throughput — images/sec of the batched SC inference runtime.
//
// Four questions: (1) what does the transfer-function LUT cache buy over
// re-emulating the SC circuits per activation, (2) how does throughput scale
// with the engine's worker-pool size, (3) what do concurrent batch forwards
// through the re-entrant const infer path buy on the submit() serving path,
// and (4) what latency separation does the priority scheduler deliver
// between interactive and batch traffic when one engine serves several
// registered variants under saturation. (1)-(3) run the full ViT forward
// with the SC softmax + GELU hooks active, i.e. the serving hot path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/ascend.h"
#include "nn/gemm.h"
#include "runtime/alloc_count.h"
#include "runtime/arena.h"

using namespace ascend;
using namespace ascend::vit;

namespace {

ScInferenceConfig serving_sc_config() {
  ScInferenceConfig cfg;
  cfg.softmax.bx = 8;
  cfg.softmax.alpha_x = 1.0;
  cfg.softmax.by = 32;
  cfg.softmax.k = 3;
  cfg.softmax.s1 = 4;
  cfg.softmax.s2 = 2;
  cfg.softmax.alpha_y = 3.0 / 32;
  cfg.use_sc_gelu = true;
  cfg.gelu_bsl = 16;
  cfg.gelu_range = 4.0;
  return cfg;
}

// `model` served in place, its SC hooks running the per-activation work on a
// pool of `threads` workers (LUT-cached, or per-activation circuit emulation
// when `cached` is false).
std::shared_ptr<runtime::Servable> in_place_servable(VisionTransformer& model,
                                                     const ScInferenceConfig& sc_cfg, int threads,
                                                     bool cached = true) {
  ScServableOptions sopts;
  sopts.use_tf_cache = cached;
  sopts.threads = threads;
  return make_sc_servable_in_place(model, sc_cfg, sopts);
}

double images_per_sec(VisionTransformer& model, const Dataset& data,
                      const ScInferenceConfig& sc_cfg, int threads, bool cached) {
  const auto servable = in_place_servable(model, sc_cfg, threads, cached);
  evaluate(*servable, data, 32);  // warm-up: builds LUTs / touches every code path
  const auto t0 = std::chrono::steady_clock::now();
  evaluate(*servable, data, 32);
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return data.size() / s;
}

// Drive the full dataset through the async submit() path and time the drain;
// this is the path where EngineOptions::concurrent_forwards matters.
double images_per_sec_submit(VisionTransformer& model, const Dataset& data,
                             const ScInferenceConfig& sc_cfg, int threads,
                             int concurrent_forwards) {
  runtime::EngineOptions opts;
  opts.max_batch = 16;
  opts.max_delay = std::chrono::microseconds(500);
  opts.concurrent_forwards = concurrent_forwards;
  auto registry = std::make_shared<runtime::ModelRegistry>();
  registry->publish(in_place_servable(model, sc_cfg, threads));
  runtime::InferenceEngine engine(registry, opts);
  const int pixels = data.images.dim(1);
  auto drain = [&] {
    std::vector<std::future<runtime::Prediction>> futs;
    futs.reserve(static_cast<std::size_t>(data.size()));
    for (int r = 0; r < data.size(); ++r) {
      std::vector<float> img(static_cast<std::size_t>(pixels));
      for (int p = 0; p < pixels; ++p) img[static_cast<std::size_t>(p)] = data.images.at(r, p);
      futs.push_back(engine.submit(std::move(img)));
    }
    for (auto& f : futs) f.get();
  };
  drain();  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  drain();
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return data.size() / s;
}

// Mixed-priority / multi-variant serving under saturation: one engine over a
// registry holding the SC LUT-cached and the W2A2 variants,
// hammered by interactive and batch-priority client streams at once. Reports
// the engine's own ascend_request_latency_usec histograms per (variant,
// priority) — p50/p95/p99/p99.9 with <= 3.2% relative bucket error — i.e.
// the scheduling separation the priority queue buys, measured where a
// production scrape would measure it.
void mixed_priority_table(VisionTransformer& model, const Dataset& data,
                          const ScInferenceConfig& sc_cfg, bench::JsonWriter* json) {
  auto registry = std::make_shared<runtime::ModelRegistry>();
  runtime::ThreadPool sc_pool(2);
  ScServableOptions sopts;
  sopts.pool = &sc_pool;
  registry->publish(make_sc_servable(model, sc_cfg, sopts, "sc-lut"));
  registry->publish(make_packed_ternary_servable(model, "w2a2-packed"));

  runtime::EngineOptions opts;
  opts.max_batch = 16;
  opts.max_delay = std::chrono::microseconds(500);
  opts.concurrent_forwards = 2;
  opts.default_variant = "sc-lut";
  runtime::InferenceEngine engine(registry, opts);

  const int pixels = data.images.dim(1);
  const int per_client = bench::fast_mode() ? 8 : 48;
  // Two clients per (variant, priority) cell, each bursting its whole stream
  // up-front (open-loop offered load): the queue holds a deep backlog, so
  // the scheduler — not idle capacity — decides who waits. Engine latency is
  // enqueue -> resolution, i.e. scheduling position plus service time.
  struct Cell {
    std::string variant;
    runtime::Priority priority;
  };
  std::vector<Cell> cells;
  for (const char* v : {"sc-lut", "w2a2-packed"})
    for (runtime::Priority p : {runtime::Priority::kInteractive, runtime::Priority::kBatch})
      for (int dup = 0; dup < 2; ++dup) cells.push_back({v, p});

  std::vector<std::thread> clients;
  for (const Cell& cell : cells) {
    clients.emplace_back([&, per_client] {
      runtime::RequestOptions ropts;
      ropts.variant = cell.variant;
      ropts.priority = cell.priority;
      std::vector<std::future<runtime::Prediction>> futs;
      futs.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const int r = i % data.size();
        std::vector<float> img(static_cast<std::size_t>(pixels));
        for (int p = 0; p < pixels; ++p) img[static_cast<std::size_t>(p)] = data.images.at(r, p);
        futs.push_back(engine.submit(std::move(img), ropts));
      }
      for (auto& f : futs) (void)f.get();
    });
  }
  for (auto& t : clients) t.join();

  const runtime::metrics::RegistrySnapshot snap = engine.metrics()->snapshot();
  std::printf("  %-14s %-12s %10s %10s %10s %10s %8s\n", "variant", "priority", "p50 ms",
              "p95 ms", "p99 ms", "p99.9 ms", "served");
  for (const char* v : {"sc-lut", "w2a2-packed"}) {
    for (runtime::Priority p : {runtime::Priority::kInteractive, runtime::Priority::kBatch}) {
      const runtime::metrics::HistogramSnapshot* h = snap.histogram(
          "ascend_request_latency_usec",
          {{"variant", v}, {"priority", runtime::priority_name(p)}});
      if (!h) continue;
      std::printf("  %-14s %-12s %10.2f %10.2f %10.2f %10.2f %8llu\n", v,
                  runtime::priority_name(p), h->quantile(0.50) / 1e3, h->quantile(0.95) / 1e3,
                  h->quantile(0.99) / 1e3, h->quantile(0.999) / 1e3,
                  static_cast<unsigned long long>(h->count));
      if (json) {
        const std::string base =
            std::string("latency_") + v + "_" + runtime::priority_name(p) + "_";
        json->add(base + "p50_ms", h->quantile(0.50) / 1e3);
        json->add(base + "p95_ms", h->quantile(0.95) / 1e3);
        json->add(base + "p99_ms", h->quantile(0.99) / 1e3);
        json->add(base + "p999_ms", h->quantile(0.999) / 1e3);
      }
    }
  }
  const runtime::EngineStats st = engine.stats();
  std::printf("  (engine-side ascend_request_latency_usec histograms, <=3.2%% bucket error;\n"
              "   %llu batches, avg fill %.1f, peak in-flight %d; interactive preempts batch\n"
              "   in queue order — expect the interactive rows well below batch)\n",
              static_cast<unsigned long long>(st.batches), st.avg_batch(), st.max_in_flight);
}

// Micro-kernel tier ladder (base / avx2 / avx512) on a ViT-ish MLP GEMM,
// then the row-band GemmOptions scaling curve at the auto tier. The tiers
// are bit-identical to each other (asserted in test_gemm), so this table is
// pure throughput.
void gemm_tier_table(bench::JsonWriter* json) {
  using nn::gemm::Kernel;
  const Kernel saved = nn::gemm::kernel();
  const int n = 768, k = 192;
  const int reps = bench::fast_mode() ? 8 : 48;
  std::vector<float> a(512 * static_cast<std::size_t>(k));
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(512 * static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>((i * 37 % 113) - 56) / 64.0f;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>((i * 53 % 127) - 63) / 64.0f;

  auto gflops = [&](int m, const nn::gemm::GemmOptions& o) {
    const std::size_t cn = static_cast<std::size_t>(m) * n;
    std::memset(c.data(), 0, cn * sizeof(float));
    nn::gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n, o);  // warm
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      std::memset(c.data(), 0, cn * sizeof(float));
      nn::gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n, o);
    }
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return 2.0 * m * n * k * reps / s / 1e9;
  };

  std::printf("  %-12s %12s   (m=128, n=%d, k=%d, serial)\n", "tier", "GFLOP/s", n, k);
  struct TierRow {
    Kernel kernel;
    const char* name;
  };
  for (const TierRow row : {TierRow{Kernel::kBase, "base"}, TierRow{Kernel::kAvx2, "avx2"},
                            TierRow{Kernel::kAvx512, "avx512"}}) {
    if (!nn::gemm::kernel_supported(row.kernel)) {
      std::printf("  %-12s %12s\n", row.name, "n/a (cpu)");
      continue;
    }
    nn::gemm::set_kernel(row.kernel);
    const double g = gflops(128, {});
    std::printf("  %-12s %12.2f\n", row.name, g);
    if (json) json->add(std::string("gemm_") + row.name + "_gflops", g);
  }
  nn::gemm::set_kernel(saved);
  if (json) json->add("gemm_kernel", nn::gemm::kernel_name());

  std::printf("  row-band scaling, %s tier, m=512 (host cores: %u)\n", nn::gemm::kernel_name(),
              std::thread::hardware_concurrency());
  double band1 = 0.0;
  for (int threads : {1, 2, 4}) {
    runtime::ThreadPool band_pool(threads);
    nn::gemm::GemmOptions o;
    o.threads = threads;
    o.pool = &band_pool;
    const double g = gflops(512, o);
    if (threads == 1) band1 = g;
    std::printf("  %-12s %12.2f %9.2fx\n", ("t=" + std::to_string(threads)).c_str(), g,
                band1 > 0 ? g / band1 : 0.0);
    if (json) json->add("gemm_rowband_t" + std::to_string(threads) + "_gflops", g);
  }
}

// Steady-state heap allocations per forward, heap-backed vs arena-backed, on
// the two production serving variants. Counts C++ operator new only (the
// interposer TU linked into this binary); the arena column being 0.0 is the
// allocation-free contract — asserted hard in test_arena and the CI smoke,
// reported here so BENCH_runtime.json carries it.
void allocation_audit(VisionTransformer& model, const Dataset& data,
                      const ScInferenceConfig& sc_cfg, bench::JsonWriter* json) {
  if (!runtime::alloc_counting_active()) {
    std::printf("  (operator-new interposer not linked — section skipped)\n");
    return;
  }
  runtime::ThreadPool sc_pool(2);
  ScServableOptions sopts;
  sopts.pool = &sc_pool;
  std::vector<std::pair<std::string, std::shared_ptr<runtime::Servable>>> variants;
  variants.emplace_back("sc-lut", make_sc_servable(model, sc_cfg, sopts, "sc-lut"));
  variants.emplace_back("w2a2-packed", make_packed_ternary_servable(model, "w2a2-packed"));

  std::printf("  %-14s %18s %18s\n", "variant", "heap allocs/fwd", "arena allocs/fwd");
  runtime::Arena arena;
  const int iters = 5;
  for (auto& [name, servable] : variants) {
    (void)servable->infer(data.images);  // warm: frozen snapshots, LUTs, scratch
    const std::uint64_t h0 = runtime::alloc_count();
    for (int i = 0; i < iters; ++i) (void)servable->infer(data.images);
    const double heap_per = static_cast<double>(runtime::alloc_count() - h0) / iters;
    for (int i = 0; i < 3; ++i) {  // sizing pass + consolidation cycles
      runtime::ArenaScope scope(arena);
      (void)servable->infer(data.images);
      arena.reset();
    }
    const std::uint64_t a0 = runtime::alloc_count();
    for (int i = 0; i < iters; ++i) {
      runtime::ArenaScope scope(arena);
      (void)servable->infer(data.images);
      arena.reset();
    }
    const double arena_per = static_cast<double>(runtime::alloc_count() - a0) / iters;
    std::printf("  %-14s %18.1f %18.1f\n", name.c_str(), heap_per, arena_per);
    if (json) {
      std::string key = name;
      std::replace(key.begin(), key.end(), '-', '_');
      json->add("allocs_per_forward_heap_" + key, heap_per);
      json->add("allocs_per_forward_arena_" + key, arena_per);
    }
  }
}

// Single-row kernels for google-benchmark: the softmax nonlinear block served
// from the LUT cache vs per-call circuit emulation.
sc::SoftmaxIterConfig row_config() {
  sc::SoftmaxIterConfig cfg;
  cfg.m = 16;
  cfg.bx = 8;
  cfg.alpha_x = 1.0;
  cfg.by = 32;
  cfg.s1 = 4;
  cfg.s2 = 2;
  cfg.alpha_y = 3.0 / 32;
  return cfg;
}

void bm_softmax_row_emulated(benchmark::State& state) {
  const auto cfg = row_config();
  const auto rows = sc::sample_attention_logits(cfg.m, 1, 7);
  for (auto _ : state) benchmark::DoNotOptimize(sc::softmax_iterative_sc(rows[0], cfg));
}
BENCHMARK(bm_softmax_row_emulated);

void bm_softmax_row_cached(benchmark::State& state) {
  const auto cfg = row_config();
  const runtime::SoftmaxLut lut(cfg);
  const auto rows = sc::sample_attention_logits(cfg.m, 1, 7);
  for (auto _ : state) benchmark::DoNotOptimize(lut(rows[0]));
}
BENCHMARK(bm_softmax_row_cached);

// The FSM softmax baseline gets the same treatment (DSE sweeps re-run it per
// design point): bit-level emulation vs the tf_cache threshold tables.
sc::FsmSoftmaxConfig fsm_row_config() {
  sc::FsmSoftmaxConfig cfg;
  cfg.m = 16;
  cfg.bsl = 256;
  return cfg;
}

void bm_softmax_fsm_row_emulated(benchmark::State& state) {
  const auto cfg = fsm_row_config();
  const auto rows = sc::sample_attention_logits(cfg.m, 1, 7);
  for (auto _ : state) benchmark::DoNotOptimize(sc::softmax_fsm(rows[0], cfg));
}
BENCHMARK(bm_softmax_fsm_row_emulated);

void bm_softmax_fsm_row_cached(benchmark::State& state) {
  const auto cfg = fsm_row_config();
  const runtime::SoftmaxFsmLut lut(cfg);
  const auto rows = sc::sample_attention_logits(cfg.m, 1, 7);
  for (auto _ : state) benchmark::DoNotOptimize(lut(rows[0]));
}
BENCHMARK(bm_softmax_fsm_row_cached);

// Frozen quantized-weight snapshot on the Linear serving path: the serving
// engine quantizes an immutable weight matrix once per freeze instead of per
// call. `_requant` thaws before every call to measure the old behaviour.
nn::Linear quantized_linear(nn::Rng& rng) {
  nn::Linear lin(128, 128, rng);
  lin.set_weight_quant(nn::QuantSpec::ternary());
  lin.set_input_quant(nn::QuantSpec::ternary());
  return lin;
}

void bm_linear_infer_frozen(benchmark::State& state) {
  nn::Rng rng(5);
  nn::Linear lin = quantized_linear(rng);
  nn::Tensor x({static_cast<int>(state.range(0)), 128});
  rng.fill_normal(x, 0.0f, 1.0f);
  (void)lin.forward(x);  // latch the LSQ steps
  (void)lin.infer(x);    // freeze the weight snapshot
  for (auto _ : state) benchmark::DoNotOptimize(lin.infer(x).size());
}
BENCHMARK(bm_linear_infer_frozen)->Arg(1)->Arg(16);

void bm_linear_infer_requant(benchmark::State& state) {
  nn::Rng rng(5);
  nn::Linear lin = quantized_linear(rng);
  nn::Tensor x({static_cast<int>(state.range(0)), 128});
  rng.fill_normal(x, 0.0f, 1.0f);
  (void)lin.forward(x);
  for (auto _ : state) {
    lin.thaw();  // forces per-call weight re-quantization (pre-snapshot behaviour)
    benchmark::DoNotOptimize(lin.infer(x).size());
  }
}
BENCHMARK(bm_linear_infer_requant)->Arg(1)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  bench::JsonWriter json;
  bench::banner("runtime throughput — batched SC inference engine",
                "serving extension (no table in the paper)");

  VitConfig cfg = VitConfig::bench_topology(10);
  const int images = bench::fast_mode() ? 32 : 128;
  VisionTransformer model(cfg, 3);  // throughput does not depend on training
  model.apply_precision(PrecisionSpec::w2a2r16());
  const Dataset data = make_synthetic_vision(images, cfg.classes, 12);
  // Latch the LSQ quantizer steps once so every engine below serves the same
  // calibrated model (the const infer path never initialises them).
  (void)model.forward(data.images, /*training=*/false);
  const ScInferenceConfig sc_cfg = serving_sc_config();

  std::printf("\n%d images, %d tokens, dim %d, %d layers (SC softmax + gate-SI GELU active)\n",
              images, cfg.tokens(), cfg.dim, cfg.layers);

  const double uncached_1t = images_per_sec(model, data, sc_cfg, 1, /*cached=*/false);
  const double cached_1t = images_per_sec(model, data, sc_cfg, 1, /*cached=*/true);
  std::printf("\n-- transfer-function LUT cache (1 thread) --\n");
  std::printf("  %-28s %10.2f images/s\n", "per-activation emulation", uncached_1t);
  std::printf("  %-28s %10.2f images/s\n", "tf_cache LUTs", cached_1t);
  std::printf("  %-28s %10.2fx\n", "speedup", cached_1t / uncached_1t);
  json.add("lut_cache_off_images_per_sec", uncached_1t);
  json.add("lut_cache_on_images_per_sec", cached_1t);
  json.add("lut_cache_speedup", cached_1t / uncached_1t);

  std::printf("\n-- worker-pool scaling (LUT cache on) --\n");
  std::printf("  %8s %14s %10s\n", "threads", "images/s", "scaling");
  for (int threads : {1, 2, 4, 8}) {
    const double ips = threads == 1 ? cached_1t : images_per_sec(model, data, sc_cfg, threads, true);
    std::printf("  %8d %14.2f %9.2fx\n", threads, ips, ips / cached_1t);
    json.add("scaling_t" + std::to_string(threads) + "_images_per_sec", ips);
  }
  std::printf("  (scaling is bounded by the machine's core count: %u)\n",
              std::thread::hardware_concurrency());

  std::printf("\n-- concurrent batch forwards (submit path, LUT cache on) --\n");
  std::printf("  %8s %12s %12s %12s %12s\n", "threads", "cf=1 img/s", "cf=2 img/s",
              "cf=4 img/s", "cf=2 gain");
  for (int threads : {1, 2, 4}) {
    double ips[3];
    int col = 0;
    for (int cf : {1, 2, 4}) {
      ips[col] = images_per_sec_submit(model, data, sc_cfg, threads, cf);
      json.add("submit_t" + std::to_string(threads) + "_cf" + std::to_string(cf) +
                   "_images_per_sec",
               ips[col]);
      ++col;
    }
    std::printf("  %8d %12.2f %12.2f %12.2f %11.2fx\n", threads, ips[0], ips[1], ips[2],
                ips[1] / ips[0]);
  }
  std::printf("  (>= 2 in-flight forwards beat the serialized path on multi-core hosts;\n"
              "   bit-exactness of the concurrent infer path is asserted in test_concurrency)\n");

  std::printf("\n-- mixed-priority / multi-variant serving under saturation --\n");
  mixed_priority_table(model, data, sc_cfg, &json);

  std::printf("\n-- GEMM micro-kernel tiers & row-band scaling --\n");
  gemm_tier_table(&json);

  std::printf("\n-- steady-state allocations per forward (heap vs arena) --\n");
  allocation_audit(model, data, sc_cfg, &json);

  if (!json_path.empty()) json.write(json_path);
  bench::run_timing_kernels(argc, argv);
  return 0;
}
