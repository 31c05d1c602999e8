// bench_gemm — the blocked/tiled GEMM kernel subsystem, and the W2A2
// Linear::infer path that runs ternary codes through it.
//
// Two questions: (1) what throughput does the cache-blocked, register-tiled
// kernel layer reach across square and ViT-shaped products, and (2) what
// does a W2A2 Linear::infer cost next to the same layer in fp32 at the
// bench topology's shapes. Pin ASCEND_GEMM_KERNEL to compare micro-kernel
// tiers.

#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "nn/gemm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/rng.h"

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
  if (!json_path.empty()) json.write(json_path);
  bench::run_timing_kernels(argc, argv);
  return 0;
}
