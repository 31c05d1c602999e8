// Unit tests for SC-emulated inference.

#include <gtest/gtest.h>

#include "vit/sc_inference.h"
#include "vit/train.h"

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
  cfg.classes = 3;
  return cfg;
}

sc::SoftmaxIterConfig tiny_softmax() {
  sc::SoftmaxIterConfig sm;
  sm.m = 4;  // will be overridden anyway
  sm.k = 3;
  sm.bx = 4;
  sm.by = 16;
  sm.s1 = 2;
  sm.s2 = 2;
  sm.alpha_x = 1.0;
  sm.alpha_y = 1.5 / 16;
  return sm;
}

}  // namespace

TEST(ScInference, RunsAndRestoresHooks) {
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 1);
  const Dataset test = make_synthetic_vision(20, cfg.classes, 2, cfg.image_size);

  ScInferenceConfig sc_cfg;
  sc_cfg.softmax = tiny_softmax();
  const Batch b = take_batch(test, {0, 1, 2, 3});
  const VisionTransformer& served = model;
  const nn::Tensor plain = served.infer(b.images);
  const double acc = evaluate_sc(model, test, sc_cfg);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 100.0);
  // Hooks must be cleared: infer is hook-free again, and backward runs.
  const nn::Tensor after = served.infer(b.images);
  ASSERT_EQ(after.shape(), plain.shape());
  for (std::size_t i = 0; i < plain.size(); ++i) EXPECT_EQ(after[i], plain[i]) << "logit " << i;
  const nn::Tensor logits = model.forward(b.images, true);
  EXPECT_NO_THROW(model.backward(nn::Tensor(logits.shape())));
}

TEST(ScInference, FineSoftmaxConfigCloseToFloat) {
  // With a fine y grid and mild sub-sampling the SC model should rarely flip
  // predictions relative to float inference on an untrained net.
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 3);
  const Dataset test = make_synthetic_vision(40, cfg.classes, 4, cfg.image_size);

  const double float_acc = evaluate(model, test);
  ScInferenceConfig sc_cfg;
  sc_cfg.softmax = tiny_softmax();
  sc_cfg.softmax.by = 32;
  sc_cfg.softmax.alpha_y = 1.5 / 32;
  const double sc_acc = evaluate_sc(model, test, sc_cfg);
  EXPECT_NEAR(sc_acc, float_acc, 35.0);  // same ballpark on random weights
}

TEST(ScInference, GeluHookApplied) {
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 5);
  const Dataset test = make_synthetic_vision(10, cfg.classes, 6, cfg.image_size);
  ScInferenceConfig sc_cfg;
  sc_cfg.use_sc_softmax = false;
  sc_cfg.use_sc_gelu = true;
  sc_cfg.gelu_bsl = 8;
  EXPECT_NO_THROW(evaluate_sc(model, test, sc_cfg));
}

TEST(ScInference, CoarserSoftmaxMoreDisruptive) {
  // Accuracy deviation from float eval should not shrink when By collapses
  // from 32 to 4 (Table VI trend at the circuit level).
  const VitConfig cfg = tiny_config();
  VisionTransformer model(cfg, 7);
  const Dataset test = make_synthetic_vision(60, cfg.classes, 8, cfg.image_size);
  const double float_acc = evaluate(model, test);

  auto deviation = [&](int by) {
    ScInferenceConfig sc_cfg;
    sc_cfg.softmax = tiny_softmax();
    sc_cfg.softmax.by = by;
    sc_cfg.softmax.alpha_y = 1.5 / by;
    return std::fabs(evaluate_sc(model, test, sc_cfg) - float_acc);
  };
  EXPECT_LE(deviation(32), deviation(4) + 10.0);
}
