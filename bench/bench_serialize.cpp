// bench_serialize — checkpoint save/load and serving cold-start latency.
//
// Three questions: (1) what do save / eager-load / mmap-load of the
// versioned checkpoint container cost on a serving-sized ViT, (2) how long
// from a cold process to the first logit for each registered variant kind
// when the registry cold-starts it straight off the file
// (ModelRegistry::register_from_file), and (3) what does zero-copy mmap buy
// over eager heap copies on that path. Fidelity is asserted in
// test_serialize; this bench only reports the measured times that ROADMAP
// and docs/checkpoint.md quote.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "bench_util.h"
#include "core/ascend.h"

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

/// Mean wall-clock ms of `fn` over `reps` runs (no warm-up: cold-start is
/// exactly what this bench measures, and the page cache is warm either way
/// after the first save).
double mean_ms(int reps, const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return s * 1e3 / reps;
}

std::int64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size) : -1;
}

// The integrity tax: every load checksums the whole payload, so load latency
// is bounded below by crc32 bandwidth. Reported as bytes/second.
void bm_crc32_payload(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131);
  for (auto _ : state)
    benchmark::DoNotOptimize(serialize::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_crc32_payload)->Arg(64 << 10)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  bench::JsonWriter json;
  bench::banner("checkpoint save/load & cold-start latency",
                "serving extension (no table in the paper)");

  VitConfig cfg = VitConfig::bench_topology(10);
  const int images = bench::fast_mode() ? 16 : 64;
  const int reps = bench::fast_mode() ? 3 : 10;
  VisionTransformer model(cfg, 3);
  model.apply_precision(PrecisionSpec::w2a2r16());
  const Dataset data = make_synthetic_vision(images, cfg.classes, 12);
  (void)model.forward(data.images, /*training=*/false);  // latch LSQ calibration

  const std::string path =
      "/tmp/ascend_bench_ckpt_" + std::to_string(::getpid()) + ".ckpt";
  serialize::save_model(model, path);
  const std::int64_t bytes = file_bytes(path);
  std::printf("\n%d-layer dim-%d ViT, W2-A2-R16: %lld bytes on disk\n",
              cfg.layers, cfg.dim, static_cast<long long>(bytes));
  json.add("ckpt_bytes", bytes);

  const double save_ms = mean_ms(reps, [&] { serialize::save_model(model, path); });
  const double eager_ms = mean_ms(reps, [&] { (void)serialize::load_model(path); });
  const double mmap_ms = mean_ms(reps, [&] { (void)serialize::load_model_mmap(path); });
  std::printf("\n-- container round-trip (mean of %d) --\n", reps);
  std::printf("  %-28s %10.2f ms\n", "save (write + checksum)", save_ms);
  std::printf("  %-28s %10.2f ms\n", "load, eager heap copies", eager_ms);
  std::printf("  %-28s %10.2f ms\n", "load, zero-copy mmap views", mmap_ms);
  json.add("save_ms", save_ms);
  json.add("load_eager_ms", eager_ms);
  json.add("load_mmap_ms", mmap_ms);

  // Cold start to first logit: registry cold-start from file + one forward
  // over a single image, i.e. everything a freshly exec'd server pays before
  // it can answer its first request on that variant (includes snapshot
  // freezes and, for sc-lut, transfer-function LUT builds).
  const ScInferenceConfig sc_cfg = serving_sc_config();
  runtime::ThreadPool sc_pool(2);
  ScServableOptions sc_opts;
  sc_opts.pool = &sc_pool;
  nn::Tensor one = nn::Tensor::uninitialized({1, data.images.dim(1)});
  for (int p = 0; p < data.images.dim(1); ++p) one.at(0, p) = data.images.at(0, p);

  struct KindRow {
    runtime::VariantKind kind;
    const char* name;
  };
  const KindRow kinds[] = {{runtime::VariantKind::kFp32, "fp32"},
                           {runtime::VariantKind::kPackedTernary, "w2a2-packed"},
                           {runtime::VariantKind::kScLut, "sc-lut"},
                           {runtime::VariantKind::kScEmulated, "sc-emulated"}};
  std::printf("\n-- cold start to first logit, register_from_file (mean of %d) --\n", reps);
  std::printf("  %-14s %12s %12s\n", "variant", "mmap ms", "eager ms");
  for (const KindRow& row : kinds) {
    // register_from_file always maps the file; the eager column builds the
    // same servable from heap copies of the weights.
    runtime::RegisterFromFileOptions ropts;
    ropts.sc_config = &sc_cfg;
    ropts.sc_options = &sc_opts;
    double cold[2];
    cold[0] = mean_ms(reps, [&] {
      runtime::ModelRegistry registry;
      registry.register_from_file(row.name, path, row.kind, ropts);
      (void)registry.get(row.name)->infer(one);
    });
    cold[1] = mean_ms(reps, [&] {
      runtime::ModelRegistry registry;
      registry.publish(make_servable(serialize::load_model(path), row.kind, row.name, sc_cfg,
                                     sc_opts));
      (void)registry.get(row.name)->infer(one);
    });
    std::printf("  %-14s %12.2f %12.2f\n", row.name, cold[0], cold[1]);
    std::string key = row.name;
    std::replace(key.begin(), key.end(), '-', '_');
    json.add("cold_start_mmap_" + key + "_ms", cold[0]);
    json.add("cold_start_eager_" + key + "_ms", cold[1]);
  }
  std::printf("  (fidelity of every cold-started variant vs the in-memory servables is\n"
              "   asserted bit-exactly in test_serialize; this table is latency only)\n");

  ::unlink(path.c_str());
  if (!json_path.empty()) json.write(json_path);
  bench::run_timing_kernels(argc, argv);
  return 0;
}
