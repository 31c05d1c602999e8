// make_golden_checkpoint — regenerates the committed format-compatibility
// fixtures under tests/data/:
//   golden_vit.ckpt    — a tiny calibrated W2-A2-R16 model, format version 1
//   golden_input.bin   — a fixed input batch  (u32 rows, u32 cols, f32 data)
//   golden_logits.bin  — that batch's logits from the model that was saved
//
// The fixtures pin the on-disk format: test_serialize's Golden battery loads
// the committed checkpoint with today's reader and checks the logits, so any
// accidental layout change breaks CI instead of silently orphaning every
// previously written checkpoint. Regenerate ONLY on an intentional format
// bump (see docs/checkpoint.md), and commit all three files together:
//
//   cmake --build build --target make_golden_checkpoint
//   ./build/make_golden_checkpoint
//
// The inputs/logits are committed rather than re-derived at test time so the
// test never depends on cross-platform reproducibility of the generator's
// random streams — only on the bytes in the repo.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "nn/rng.h"
#include "serialize/model_io.h"
#include "vit/model.h"

namespace {

void write_matrix(const std::string& path, const ascend::nn::Tensor& t) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto rows = static_cast<std::uint32_t>(t.dim(0));
  const auto cols = static_cast<std::uint32_t>(t.dim(1));
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

int main() {
  using namespace ascend;

  // Same tiny topology the unit tests use: small enough that the committed
  // checkpoint stays a few tens of kilobytes.
  vit::VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;
  cfg.channels = 3;
  cfg.dim = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.mlp_ratio = 2;
  cfg.classes = 4;

  vit::VisionTransformer model(cfg, /*seed=*/42);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());

  // One eval-mode forward calibrates every LSQ step (Linear's forward always
  // runs the quantizer training path), giving the checkpoint non-trivial
  // calibration state to carry.
  nn::Rng rng(7);
  nn::Tensor calib({8, cfg.patch_dim() * cfg.tokens()});
  rng.fill_uniform(calib, 0.0f, 1.0f);
  model.forward(calib, /*training=*/false);

  const std::string dir = std::string(ASCEND_SOURCE_DIR) + "/tests/data";
  serialize::save_model(model, dir + "/golden_vit.ckpt");

  nn::Tensor input({4, cfg.patch_dim() * cfg.tokens()});
  rng.fill_uniform(input, 0.0f, 1.0f);
  write_matrix(dir + "/golden_input.bin", input);
  write_matrix(dir + "/golden_logits.bin", model.infer(input));

  std::printf("wrote golden fixtures to %s\n", dir.c_str());
  return 0;
}
