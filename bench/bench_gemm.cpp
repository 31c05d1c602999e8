// bench_gemm — the blocked/tiled GEMM kernel subsystem, the W2A2
// Linear::infer path that runs ternary codes through it, and the lane
// kernels that dispatch on the same tier.
//
// Three questions: (1) what throughput does the cache-blocked, register-tiled
// kernel layer reach across square and ViT-shaped products, (2) what does a
// W2A2 Linear::infer cost next to the same layer in fp32 at the bench
// topology's shapes, and (3) what does each tier's copy of the batch-1 lane
// kernels (softmax LUT tile, GELU count table, residual requantize, code
// GEMMs) cost, head to head in one process. Pin ASCEND_GEMM_KERNEL to compare
// micro-kernel tiers in (1) and (2).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "nn/gemm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "runtime/tf_cache.h"
#include "sc/gate_si.h"

using namespace ascend;
using namespace ascend::nn;

namespace {

double seconds_per_call(const std::function<void()>& fn, int iters) {
  fn();  // warm-up (touches pack scratch, builds snapshots)
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / iters;
}

struct Shape {
  const char* label;
  const char* key;  ///< JSON metric prefix; null = table-only
  int m, k, n;
};

void dense_kernel_table(bool fast, bench::JsonWriter* json) {
  // Square sweep plus the ViT products the serving path actually issues
  // (bench topology: dim 64, tokens 16, mlp ratio 2; batch 64 rows).
  const std::vector<Shape> shapes = {
      {"64^3", nullptr, 64, 64, 64},
      {"128^3", nullptr, 128, 128, 128},
      {"192^3 (acceptance)", "gemm_192", 192, 192, 192},
      {"256^3", nullptr, 256, 256, 256},
      {"qkv   [1024,64]x[64,192]", "gemm_qkv", 1024, 64, 192},
      {"mlp1  [1024,64]x[64,128]", nullptr, 1024, 64, 128},
      {"mlp2  [1024,128]x[128,64]", nullptr, 1024, 128, 64},
      {"head  [64,64]x[64,10]", nullptr, 64, 64, 10},
  };
  Rng rng(2);
  std::printf("\n-- dense f32 GEMM: blocked kernels (%s tier) --\n", gemm::kernel_name());
  std::printf("  %-28s %12s %12s\n", "shape (m x k x n)", "blocked ms", "blocked GF/s");
  for (const auto& s : shapes) {
    Tensor a({s.m, s.k}), b({s.k, s.n});
    rng.fill_normal(a, 0, 1);
    rng.fill_normal(b, 0, 1);
    const double flops = 2.0 * s.m * s.k * s.n;
    const int iters = fast ? 5 : std::max(10, static_cast<int>(2e8 / flops));
    const double t_blk =
        seconds_per_call([&] { ::benchmark::DoNotOptimize(matmul(a, b).data()); }, iters);
    std::printf("  %-28s %12.3f %12.2f\n", s.label, t_blk * 1e3, flops / t_blk / 1e9);
    if (json && s.key) json->add(std::string(s.key) + "_blocked_gflops", flops / t_blk / 1e9);
  }
}

void w2a2_linear_table(bool fast, bench::JsonWriter* json) {
  // The bench topology's four encoder GEMMs (dim 64, mlp ratio 2) at 16
  // rows (one 16-token image) and 256 rows (a batch of 16). "fp32" is the
  // same layer with its quantizers off; "w2a2" is ternary weights AND
  // activations, served as 0/±1 codes through the same blocked GEMM.
  struct Layer {
    const char* name;
    int in, out;
  };
  const Layer layers[] = {{"qkv", 64, 192}, {"proj", 64, 64}, {"fc1", 64, 128}, {"fc2", 128, 64}};
  Rng rng(5);
  std::printf("\n-- W2A2 Linear::infer (ternary codes through the blocked GEMM) --\n");
  std::printf("  %-6s %6s %14s %14s %9s\n", "layer", "rows", "fp32 us/call", "w2a2 us/call",
              "w2a2/fp32");
  for (const Layer& l : layers) {
    Linear fp(l.in, l.out, rng);
    Linear w2a2 = fp;
    w2a2.set_weight_quant(QuantSpec::ternary());
    w2a2.set_input_quant(QuantSpec::ternary());
    for (int rows : {16, 256}) {
      Tensor x({rows, l.in});
      rng.fill_normal(x, 0, 1);
      (void)w2a2.forward(x);  // latch the LSQ steps (thaws snapshots)
      const int iters = fast ? 50 : (rows == 16 ? 20000 : 2000);
      const double t_fp =
          seconds_per_call([&] { ::benchmark::DoNotOptimize(fp.infer(x).data()); }, iters);
      const double t_w2a2 =
          seconds_per_call([&] { ::benchmark::DoNotOptimize(w2a2.infer(x).data()); }, iters);
      std::printf("  %-6s %6d %14.2f %14.2f %8.2fx\n", l.name, rows, t_fp * 1e6, t_w2a2 * 1e6,
                  t_w2a2 / t_fp);
      if (json) {
        const std::string base = std::string("w2a2_") + l.name + "_m" + std::to_string(rows);
        json->add(base + "_usec_per_call", t_w2a2 * 1e6);
        json->add(base + "_vs_fp32", t_w2a2 / t_fp);
      }
    }
  }
}

/// Median of `samples` seconds_per_call readings: one slow sample (a
/// preempted slice) does not move it.
double median_seconds_per_call(const std::function<void()>& fn, int iters, int samples) {
  std::vector<double> t;
  for (int s = 0; s < samples; ++s) t.push_back(seconds_per_call(fn, iters));
  std::nth_element(t.begin(), t.begin() + samples / 2, t.end());
  return t[static_cast<std::size_t>(samples / 2)];
}

void lane_kernel_table(bool fast) {
  // engine_vit's batch-1 work per call: one head's 16 x 16 score tile
  // through the softmax LUT (bx 8, by 32), the 16 x 128 GELU count table
  // (BSL 16 over +-4) as values and composed with a ternary quantizer (the
  // table sc-lut's W2A2 MLP applies), one 16 x 64 residual requantize (R16)
  // and the four encoder code GEMMs at 16 rows. The same calls run on every
  // tier the CPU supports, so each tier's kernel copies compare head to head.
  constexpr int kTokens = 16, kDim = 64, kHidden = 128;
  sc::SoftmaxIterConfig sm;
  sm.m = kTokens;
  sm.bx = 8;
  sm.alpha_x = 1.0;
  sm.by = 32;
  sm.k = 3;
  sm.s1 = 4;
  sm.s2 = 2;
  sm.alpha_y = 3.0 / 32;
  const runtime::SoftmaxLut softmax(sm);
  const runtime::GateSiLut gelu(sc::make_gelu_block(16, -4.0, 4.0, 16));
  const CountTable gelu_codes = gelu.count_table().ternary_codes(0.15f);
  LsqQuantizer residual;
  residual.restore_calibration(QuantSpec::from_bsl(16), /*calibrated=*/true, 0.25f);

  Rng rng(9);
  Tensor scores({kTokens, kTokens}), gx({kTokens, kHidden}), ra({kTokens, kDim}),
      rb({kTokens, kDim});
  rng.fill_normal(scores, 0, 2);
  rng.fill_normal(gx, 0, 1.5f);
  rng.fill_normal(ra, 0, 1);
  rng.fill_normal(rb, 0, 1);
  Tensor probs(scores.shape()), gy(gx.shape()), rq(rb.shape());
  struct Layer {
    int in, out;
  };
  const Layer layers[] = {{kDim, 3 * kDim}, {kDim, kDim}, {kDim, kHidden}, {kHidden, kDim}};
  std::vector<Linear> linears;
  std::vector<Tensor> codes;
  for (const Layer& l : layers) {
    Linear& lin = linears.emplace_back(l.in, l.out, rng);
    lin.set_weight_quant(QuantSpec::ternary());
    lin.set_input_quant(QuantSpec::ternary());
    Tensor x({kTokens, l.in});
    rng.fill_normal(x, 0, 1);
    (void)lin.forward(x);  // latch the LSQ steps
    const float half = 0.5f * lin.input_quant().serving_step();
    Tensor& c = codes.emplace_back(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) c[i] = ternary_code(x[i], half);
  }

  const int iters = fast ? 20 : 2000, samples = fast ? 3 : 11;
  const gemm::Kernel saved = gemm::kernel();
  std::printf("\n-- lane kernels per tier, batch 1 (ns/call, median of %d samples) --\n", samples);
  std::printf("  %-8s %13s %13s %13s %13s %13s\n", "tier", "softmax tile", "gelu values",
              "gelu codes", "requant", "4 code GEMMs");
  for (const gemm::Kernel tier :
       {gemm::Kernel::kBase, gemm::Kernel::kAvx2, gemm::Kernel::kAvx512}) {
    if (!gemm::kernel_supported(tier)) continue;
    gemm::set_kernel(tier);
    const double t_softmax = median_seconds_per_call(
        [&] { softmax.rows(scores.data(), kTokens, probs.data()); }, iters, samples);
    const double t_gelu = median_seconds_per_call(
        [&] { gelu.count_table().apply(gx.data(), gx.size(), gy.data()); }, iters, samples);
    const double t_gelu_codes = median_seconds_per_call(
        [&] { gelu_codes.apply(gx.data(), gx.size(), gy.data()); }, iters, samples);
    const double t_requant = median_seconds_per_call(
        [&] {
          std::copy(rb.data(), rb.data() + rb.size(), rq.data());
          rq = residual.infer_add(ra, std::move(rq));
        },
        iters, samples);
    const double t_codes = median_seconds_per_call(
        [&] {
          for (std::size_t l = 0; l < linears.size(); ++l)
            ::benchmark::DoNotOptimize(linears[l].infer_codes(codes[l]).data());
        },
        iters, samples);
    std::printf("  %-8s %13.0f %13.0f %13.0f %13.0f %13.0f\n", gemm::kernel_name(),
                t_softmax * 1e9, t_gelu * 1e9, t_gelu_codes * 1e9, t_requant * 1e9, t_codes * 1e9);
  }
  gemm::set_kernel(saved);
}

// Registered google-benchmark kernels for flag-driven runs.

void bm_gemm_blocked_192(benchmark::State& state) {
  Rng rng(7);
  Tensor a({192, 192}), b({192, 192});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b).data());
}
BENCHMARK(bm_gemm_blocked_192);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  bench::JsonWriter json;
  bench::banner("GEMM kernel layer — blocked/tiled dense + W2A2 ternary codes",
                "serving extension (no table in the paper)");
  const bool fast = bench::fast_mode();
  dense_kernel_table(fast, &json);
  w2a2_linear_table(fast, &json);
  lane_kernel_table(fast);
  if (!json_path.empty()) json.write(json_path);
  bench::run_timing_kernels(argc, argv);
  return 0;
}
