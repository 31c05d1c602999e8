// bench_runtime_throughput — the batched SC inference runtime's two
// host-robust serving invariants.
//
// Two questions: (1) what does the transfer-function LUT cache buy over
// re-emulating the SC circuits per activation (the full ViT forward with the
// SC softmax + GELU hooks active, i.e. the serving hot path, on one thread;
// the median of several timed passes, with their spread),
// and (2) how many heap allocations does a steady-state forward make, heap-
// vs arena-backed. Both are ratios or exact counts, gated by
// scripts/bench_compare.py. Wall-clock serving rates and latencies are
// measured with run-to-run spread by the repository benchmark (perfbench/).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/ascend.h"
#include "runtime/alloc_count.h"
#include "runtime/arena.h"

#ifdef _OPENMP
#include <omp.h>
#endif

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

/// Images/s of one series of timed evaluate passes: the median pass and
/// the spread around it.
struct PassRates {
  double median, min, max;
};

constexpr int kTimedPasses = 5;

// `model` served in place with its SC hooks: LUT-cached, or per-activation
// circuit emulation when `cached` is false. Both sides run on one thread:
// the OpenMP team that attention's head loop (and with it the emulated
// softmax) would spread over is pinned to 1 here and restored afterwards,
// and the emulated GELU, given no pool, runs on the calling thread, so the
// ratio does not follow the host's core count. One warm-up pass, then kTimedPasses timed ones.
PassRates images_per_sec(VisionTransformer& model, const Dataset& data,
                         const ScInferenceConfig& sc_cfg, bool cached) {
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  ScServableOptions sopts;
  sopts.use_tf_cache = cached;
  const auto servable = make_sc_servable_in_place(model, sc_cfg, sopts);
  evaluate(*servable, data, 32);  // warm-up: builds LUTs / touches every code path
  std::vector<double> rates;
  for (int p = 0; p < kTimedPasses; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    evaluate(*servable, data, 32);
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    rates.push_back(data.size() / s);
  }
#ifdef _OPENMP
  omp_set_num_threads(omp_threads);
#endif
  std::sort(rates.begin(), rates.end());
  return {rates[rates.size() / 2], rates.front(), rates.back()};
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
  std::vector<std::pair<std::string, std::shared_ptr<runtime::Servable>>> variants;
  variants.emplace_back("sc-lut", make_servable(model.clone_for_serving(),
                                                runtime::VariantKind::kScLut, "sc-lut", sc_cfg));
  variants.emplace_back("w2a2-packed", make_servable(model.clone_for_serving(),
                                                     runtime::VariantKind::kPackedTernary,
                                                     "w2a2-packed"));

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
  // Latch the LSQ quantizer steps once so every servable below serves the same
  // calibrated model (the const infer path never initialises them).
  (void)model.forward(data.images, /*training=*/false);
  const ScInferenceConfig sc_cfg = serving_sc_config();

  std::printf("\n%d images, %d tokens, dim %d, %d layers (SC softmax + gate-SI GELU active)\n",
              images, cfg.tokens(), cfg.dim, cfg.layers);

  const PassRates off = images_per_sec(model, data, sc_cfg, /*cached=*/false);
  const PassRates on = images_per_sec(model, data, sc_cfg, /*cached=*/true);
  std::printf("\n-- transfer-function LUT cache (1 thread, median of %d passes [min, max]) --\n",
              kTimedPasses);
  std::printf("  %-28s %10.2f images/s [%.2f, %.2f]\n", "per-activation emulation", off.median,
              off.min, off.max);
  std::printf("  %-28s %10.2f images/s [%.2f, %.2f]\n", "tf_cache LUTs", on.median, on.min,
              on.max);
  std::printf("  %-28s %10.2fx [%.2f, %.2f]\n", "speedup", on.median / off.median,
              on.min / off.max, on.max / off.min);
  json.add("lut_cache_off_images_per_sec", off.median);
  json.add("lut_cache_off_images_per_sec_min", off.min);
  json.add("lut_cache_off_images_per_sec_max", off.max);
  json.add("lut_cache_on_images_per_sec", on.median);
  json.add("lut_cache_on_images_per_sec_min", on.min);
  json.add("lut_cache_on_images_per_sec_max", on.max);
  json.add("lut_cache_speedup", on.median / off.median);

  std::printf("\n-- steady-state allocations per forward (heap vs arena) --\n");
  allocation_audit(model, data, sc_cfg, &json);

  if (!json_path.empty()) json.write(json_path);
  bench::run_timing_kernels(argc, argv);
  return 0;
}
