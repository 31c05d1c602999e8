// Unit tests for the ViT model assembly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/loss.h"
#include "nn/optim.h"
#include "runtime/tf_cache.h"
#include "vit/dataset.h"
#include "vit/model.h"
#include "test_util.h"

using namespace ascend;
using namespace ascend::vit;

namespace {

VitConfig tiny_config() {
  VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;  // 4 tokens
  cfg.dim = 8;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.mlp_ratio = 2;
  cfg.classes = 3;
  return cfg;
}

nn::Tensor random_images(int n, const VitConfig& cfg, int seed) {
  nn::Rng rng(static_cast<std::uint64_t>(seed));
  nn::Tensor t({n, cfg.channels * cfg.image_size * cfg.image_size});
  rng.fill_normal(t, 0, 1);
  return t;
}

}  // namespace

TEST(VitModel, ForwardShapes) {
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 1);
  const nn::Tensor logits = model.forward(random_images(5, cfg, 2), false);
  EXPECT_EQ(logits.dim(0), 5);
  EXPECT_EQ(logits.dim(1), 3);
  EXPECT_EQ(model.block_outputs().size(), 2u);
  EXPECT_EQ(model.block_outputs()[0].dim(0), 5 * cfg.tokens());
  EXPECT_EQ(model.block_outputs()[0].dim(1), cfg.dim);
}

TEST(VitModel, ConfigAccessors) {
  const VitConfig cfg = tiny_config();
  EXPECT_EQ(cfg.tokens(), 4);
  EXPECT_EQ(cfg.patch_dim(), 3 * 64);
  EXPECT_EQ(VitConfig::paper_topology().tokens(), 64);
  EXPECT_EQ(VitConfig::paper_topology().layers, 7);
}

TEST(VitModel, BackwardGradCheckOneWeight) {
  VitConfig cfg = tiny_config();
  cfg.norm = NormKind::kLayerNorm;  // deterministic wrt batch composition
  VisionTransformer model(cfg, 3);
  const nn::Tensor images = random_images(2, cfg, 4);
  const std::vector<int> labels = {0, 2};

  auto loss = [&]() {
    return nn::cross_entropy(model.forward(images, true), labels).value;
  };
  for (nn::Param* p : model.params()) p->zero_grad();
  const nn::Tensor logits = model.forward(images, true);
  const nn::LossResult ce = nn::cross_entropy(logits, labels);
  model.backward(ce.grad);

  // Check the head weight and one block's qkv weight numerically.
  nn::Param& head_w = model.blocks()[0].msa().qkv().weight();
  EXPECT_LT(ascend::testing::max_grad_error(head_w.value, loss, head_w.grad, 2e-3f), 5e-2);
}

TEST(VitModel, PrecisionSpecWiring) {
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 5);
  model.apply_precision(PrecisionSpec::w2a2r16());
  EXPECT_EQ(model.precision().name(), "W2-A2-R16");
  EXPECT_TRUE(model.blocks()[0].msa().qkv().weight_quant().enabled());
  EXPECT_TRUE(model.blocks()[0].mlp().fc1().input_quant().enabled());
  EXPECT_TRUE(model.blocks()[0].residual_quant1().enabled());
  // Quantized forward still works and produces finite logits.
  const nn::Tensor logits = model.forward(random_images(3, cfg, 6), true);
  for (std::size_t i = 0; i < logits.size(); ++i) EXPECT_TRUE(std::isfinite(logits[i]));
  // LSQ steps appear in the parameter list after the forward.
  const std::size_t with_quant = model.params().size();
  VisionTransformer fp(cfg, 5);
  (void)fp.forward(random_images(3, cfg, 6), true);
  EXPECT_GT(with_quant, fp.params().size());
}

TEST(VitModel, CopyWeightsReproducesOutputs) {
  const VitConfig cfg = tiny_config();
  VisionTransformer a(cfg, 7), b(cfg, 999);
  const nn::Tensor images = random_images(2, cfg, 8);
  b.copy_weights_from(a);
  const nn::Tensor ya = a.forward(images, false);
  const nn::Tensor yb = b.forward(images, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(VitModel, StructuralParamsExcludeQuantSteps) {
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 9);
  const std::size_t structural = model.structural_params().size();
  model.apply_precision(PrecisionSpec::w2a2r16());
  (void)model.forward(random_images(2, cfg, 10), true);
  EXPECT_EQ(model.structural_params().size(), structural);
  EXPECT_GT(model.params().size(), structural);
}

TEST(VitModel, ApproxSoftmaxSwitch) {
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 11);
  const nn::Tensor images = random_images(2, cfg, 12);
  const nn::Tensor exact = model.forward(images, false);
  model.set_softmax_kind(nn::SoftmaxKind::kApprox);
  const nn::Tensor approx = model.forward(images, false);
  double diff = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) diff += std::fabs(exact[i] - approx[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(VitModel, OverfitsTinySubset) {
  // Sanity: a few steps of AdamW on 8 fixed samples must drive the loss down.
  VitConfig cfg = tiny_config();
  cfg.norm = NormKind::kBatchNorm;
  VisionTransformer model(cfg, 13);
  const Dataset data = make_synthetic_vision(8, cfg.classes, 14, cfg.image_size);
  const Batch batch = take_batch(data, {0, 1, 2, 3, 4, 5, 6, 7});

  (void)model.forward(batch.images, true);
  nn::AdamW opt(model.params(), 3e-3f);
  double first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    opt.zero_grad();
    const nn::Tensor logits = model.forward(batch.images, true);
    const nn::LossResult ce = nn::cross_entropy(logits, batch.labels);
    model.backward(ce.grad);
    opt.step();
    if (step == 0) first = ce.value;
    last = ce.value;
  }
  EXPECT_LT(last, first * 0.5);
}

// ---------------------------------------------------------------------------
// The LUT GELU as a count table, fused with fc2's ternary input quantizer.
// ---------------------------------------------------------------------------

namespace {

/// Every count boundary of an (lin, alpha) thermometer grid from both
/// sides, the specials, and the saturating tails.
std::vector<float> count_edges(int lin, double alpha) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {kInf,  -kInf, std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
                           1e30f, -1e30f, 0.0f, -0.0f, 1e-40f};
  for (float c : nn::count_cuts(lin, alpha))
    for (float x : {c, std::nextafter(c, -kInf), std::nextafter(c, kInf)}) xs.push_back(x);
  return xs;
}

/// The served SC GELU (vit/servable.h) at input BSL 16 and range +-4.
const runtime::GateSiLut& gelu_lut(int bsl) {
  return runtime::global_tf_cache().gelu(bsl, -4.0, 4.0, 16);
}

/// The unfused LUT GELU: a callable hook writing the LUT's float outputs,
/// which fc2 then quantizes on its own.
GeluHook callable_lut_hook(int bsl) {
  const runtime::GateSiLut* lut = &gelu_lut(bsl);
  return [lut](const nn::Tensor& x) {
    nn::Tensor y = nn::Tensor::uninitialized(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = static_cast<float>((*lut)(x[i]));
    return y;
  };
}

GeluHook table_lut_hook(int bsl) {
  return std::make_shared<const nn::CountTable>(gelu_lut(bsl).count_table());
}

/// A W2-A2-R16 tiny ViT with every quantizer calibrated.
std::unique_ptr<VisionTransformer> calibrated_w2a2(std::uint64_t seed) {
  auto model = std::make_unique<VisionTransformer>(tiny_config(), seed);
  model->apply_precision(PrecisionSpec::w2a2r16());
  (void)model->forward(random_images(8, tiny_config(), 3), /*training=*/false);
  return model;
}

void expect_same_logits(const nn::Tensor& got, const nn::Tensor& want, const std::string& where) {
  ASSERT_EQ(got.shape(), want.shape()) << where;
  EXPECT_TRUE(ascend::testing::same_bits(got.data(), want.data(), want.size())) << where;
}

}  // namespace

TEST(GeluFusion, CountCutsAreTheEncodesCountBoundaries) {
  for (const auto& [lin, alpha] : std::vector<std::pair<int, double>>{
           {16, 0.5}, {16, 0.37}, {8, 1.0}, {3, 1e-3}, {64, 7.0 / 3}, {2, 1e30}, {5, 1e-30}}) {
    const std::vector<float> cuts = nn::count_cuts(lin, alpha);
    ASSERT_EQ(cuts.size(), static_cast<std::size_t>(lin));
    for (float x : count_edges(lin, alpha)) {
      int reached = 0;
      for (float c : cuts) reached += x >= c ? 1 : 0;
      ASSERT_EQ(reached, sc::ThermValue::encode(x, lin, alpha).ones)
          << "lin=" << lin << " alpha=" << alpha << " x=" << x;
    }
  }
  EXPECT_THROW(nn::count_cuts(0, 1.0), std::invalid_argument);
  EXPECT_THROW(nn::count_cuts(4, 0.0), std::invalid_argument);
  EXPECT_THROW(nn::CountTable(4, 1.0, std::vector<float>(4)), std::invalid_argument);
}

TEST(GeluFusion, CountTableTiersMatchTheScalarLookUp) {
  // Repeated values, both zeros and a NaN among the outputs: the steps keep
  // every bit. Lengths 0..40 put every edge value in a tail.
  std::vector<float> values;
  for (int n = 0; n <= 16; ++n)
    values.push_back(n % 4 == 0 ? -0.0f : (n % 4 == 1 ? 0.0f : 0.25f * static_cast<float>(n / 3)));
  values[9] = std::numeric_limits<float>::quiet_NaN();
  const nn::CountTable table(16, 0.37, values);
  const std::vector<float> xs = count_edges(16, 0.37);
  ascend::testing::TierGuard guard;
  for (const nn::gemm::Kernel tier : ascend::testing::supported_tiers()) {
    nn::gemm::set_kernel(tier);
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = xs[(i * 5 + n) % xs.size()];
      std::vector<float> want(n), got(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = table(x[i]);
      table.apply(x.data(), n, got.data());
      ASSERT_TRUE(ascend::testing::same_bits(got.data(), want.data(), n))
          << nn::gemm::kernel_name() << " n=" << n;
      table.apply(x.data(), n, x.data());  // in place
      ASSERT_TRUE(ascend::testing::same_bits(x.data(), want.data(), n))
          << nn::gemm::kernel_name() << " n=" << n << " (in place)";
    }
  }
}

TEST(GeluFusion, CodeTableIsTheLutThenFc2sQuantizerAtEveryCount) {
  ascend::testing::TierGuard guard;
  for (const int bsl : {8, 16}) {
    const runtime::GateSiLut& lut = gelu_lut(bsl);
    for (const float step : {1e-9f, 0.05f, 0.3f, 0.9f, 2.5f, 40.0f}) {
      nn::LsqQuantizer q;
      q.restore_calibration(nn::QuantSpec::ternary(), /*calibrated=*/true, step);
      const float half = 0.5f * q.serving_step();
      const nn::CountTable& codes = q.frozen_code_table(lut.count_table());
      ASSERT_EQ(codes.lin(), lut.lin());
      for (int n = 0; n <= lut.lin(); ++n)
        ASSERT_EQ(codes.values()[static_cast<std::size_t>(n)],
                  nn::ternary_code(static_cast<float>(lut.table()[static_cast<std::size_t>(n)]), half))
            << "bsl=" << bsl << " step=" << step << " count " << n;
      const std::vector<float> xs = count_edges(lut.lin(), lut.alpha_in());
      for (const nn::gemm::Kernel tier : ascend::testing::supported_tiers()) {
        nn::gemm::set_kernel(tier);
        std::vector<float> got(xs.size());
        codes.apply(xs.data(), xs.size(), got.data());
        for (std::size_t i = 0; i < xs.size(); ++i)
          ASSERT_EQ(got[i], nn::ternary_code(static_cast<float>(lut(xs[i])), half))
              << nn::gemm::kernel_name() << " bsl=" << bsl << " step=" << step << " x=" << xs[i];
      }
    }
  }
  EXPECT_THROW((void)nn::LsqQuantizer(nn::QuantSpec::from_bsl(16))
                   .frozen_code_table(gelu_lut(16).count_table()),
               std::logic_error);
}

TEST(GeluFusion, TableHookMatchesTheUnfusedLutHookOnEveryTierAndBatch) {
  // W2A2 (fc2 serves codes: the fused table) and fp (fc2 takes the GELU's
  // values) models; batches 1, 3 and 16.
  ascend::testing::TierGuard guard;
  for (const bool w2a2 : {true, false}) {
    auto fused = calibrated_w2a2(11);
    if (!w2a2) fused->apply_precision(PrecisionSpec::fp());
    auto unfused = fused->clone_for_serving();
    ASSERT_EQ(fused->blocks()[0].mlp().fc2().serves_ternary_codes(), w2a2);
    fused->set_infer_hooks({}, table_lut_hook(16));
    unfused->set_infer_hooks({}, callable_lut_hook(16));
    for (const nn::gemm::Kernel tier : ascend::testing::supported_tiers()) {
      nn::gemm::set_kernel(tier);
      for (const int batch : {1, 3, 16}) {
        const nn::Tensor x = random_images(batch, tiny_config(), 40 + batch);
        expect_same_logits(std::as_const(*fused).infer(x), std::as_const(*unfused).infer(x),
                           std::string(nn::gemm::kernel_name()) + " batch " +
                               std::to_string(batch) + (w2a2 ? " w2a2" : " fp"));
      }
    }
    if (w2a2) {
      EXPECT_TRUE(fused->blocks()[0].mlp().fc2().input_quant().cuts_frozen());
    }
  }
}

TEST(GeluFusion, CodeTableRebuildsAfterRecalibrationAndHookChange) {
  auto fused = calibrated_w2a2(12);
  auto unfused = fused->clone_for_serving();
  const nn::Tensor x = random_images(4, tiny_config(), 77);
  const VisionTransformer& cf = *fused;
  const VisionTransformer& cu = *unfused;
  fused->set_infer_hooks({}, table_lut_hook(16));
  unfused->set_infer_hooks({}, callable_lut_hook(16));
  expect_same_logits(cf.infer(x), cu.infer(x), "first build");

  // A new fc2 input step thaws the composed table; the rebuild follows it.
  for (VisionTransformer* m : {fused.get(), unfused.get()})
    for (EncoderBlock& blk : m->blocks()) {
      nn::LsqQuantizer& q = blk.mlp().fc2().input_quant();
      q.restore_calibration(nn::QuantSpec::ternary(), true, 3.0f * q.step());
    }
  EXPECT_FALSE(fused->blocks()[0].mlp().fc2().input_quant().cuts_frozen());
  expect_same_logits(cf.infer(x), cu.infer(x), "after restore_calibration");

  // Another gelu_bsl is another table: the slot rebuilds under its id.
  fused->set_infer_hooks({}, table_lut_hook(8));
  unfused->set_infer_hooks({}, callable_lut_hook(8));
  expect_same_logits(cf.infer(x), cu.infer(x), "after set_infer_hooks with gelu_bsl 8");

  // Clearing the hook returns the erf GELU's cuts to the slot.
  fused->set_infer_hooks({}, {});
  unfused->set_infer_hooks({}, {});
  expect_same_logits(cf.infer(x), cu.infer(x), "hooks cleared");
}
