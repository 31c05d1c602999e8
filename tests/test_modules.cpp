// Grad-checked unit tests for the layer modules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "nn/module.h"
#include "nn/optim.h"
#include "test_util.h"
#include "vit/model.h"

using namespace ascend::nn;
namespace vit = ascend::vit;

namespace {

/// Scalar test loss: weighted sum of the layer output.
double weighted(const Tensor& y, const Tensor& w) {
  double l = 0;
  for (std::size_t i = 0; i < y.size(); ++i) l += y[i] * w[i];
  return l;
}

}  // namespace

TEST(LinearLayer, ForwardShapeAndBias) {
  Rng rng(1);
  Linear lin(4, 3, rng);
  lin.bias().value[1] = 7.0f;
  Tensor x({2, 4}, 0.0f);
  const Tensor y = lin.forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_FLOAT_EQ(y.at(0, 1), 7.0f);  // zero input -> bias only
  EXPECT_THROW(lin.forward(Tensor({2, 5})), std::invalid_argument);
}

TEST(LinearLayer, GradCheckInputAndParams) {
  Rng rng(2);
  Linear lin(5, 4, rng);
  Tensor x({3, 5});
  rng.fill_normal(x, 0, 1);
  Tensor gy({3, 4});
  rng.fill_normal(gy, 0, 1);

  auto loss = [&]() { return weighted(lin.forward(x), gy); };

  lin.weight().zero_grad();
  lin.bias().zero_grad();
  (void)lin.forward(x);
  const Tensor gx = lin.backward(gy);

  EXPECT_LT(ascend::testing::max_grad_error(x, loss, gx), 2e-2);
  EXPECT_LT(ascend::testing::max_grad_error(lin.weight().value, loss, lin.weight().grad), 2e-2);
  EXPECT_LT(ascend::testing::max_grad_error(lin.bias().value, loss, lin.bias().grad), 2e-2);
}

TEST(LinearLayer, CollectParams) {
  Rng rng(3);
  Linear lin(2, 2, rng);
  std::vector<Param*> ps;
  lin.collect_params(ps);
  EXPECT_EQ(ps.size(), 2u);  // weight + bias, quantizers off
}

TEST(LayerNormLayer, NormalizesRows) {
  Rng rng(4);
  LayerNorm ln(8);
  Tensor x({3, 8});
  rng.fill_normal(x, 5.0, 2.0);
  const Tensor y = ln.forward(x);
  for (int r = 0; r < 3; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 8; ++c) mean += y.at(r, c);
    mean /= 8;
    for (int c = 0; c < 8; ++c) var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(LayerNormLayer, GradCheck) {
  Rng rng(5);
  LayerNorm ln(6);
  rng.fill_normal(ln.gamma().value, 1.0, 0.2);
  rng.fill_normal(ln.beta().value, 0.0, 0.2);
  Tensor x({4, 6});
  rng.fill_normal(x, 0, 1);
  Tensor gy({4, 6});
  rng.fill_normal(gy, 0, 1);

  auto loss = [&]() { return weighted(ln.forward(x), gy); };
  ln.gamma().zero_grad();
  ln.beta().zero_grad();
  (void)ln.forward(x);
  const Tensor gx = ln.backward(gy);
  EXPECT_LT(ascend::testing::max_grad_error(x, loss, gx), 3e-2);
  EXPECT_LT(ascend::testing::max_grad_error(ln.gamma().value, loss, ln.gamma().grad), 3e-2);
  EXPECT_LT(ascend::testing::max_grad_error(ln.beta().value, loss, ln.beta().grad), 3e-2);
}

TEST(BatchNormLayer, TrainNormalizesColumns) {
  Rng rng(6);
  BatchNorm bn(5);
  Tensor x({16, 5});
  rng.fill_normal(x, -3.0, 4.0);
  const Tensor y = bn.forward(x, /*training=*/true);
  for (int c = 0; c < 5; ++c) {
    float mean = 0;
    for (int r = 0; r < 16; ++r) mean += y.at(r, c);
    EXPECT_NEAR(mean / 16, 0.0f, 1e-4);
  }
}

TEST(BatchNormLayer, RunningStatsUsedAtEval) {
  Rng rng(7);
  BatchNorm bn(3);
  Tensor x({64, 3});
  rng.fill_normal(x, 2.0, 1.0);
  for (int i = 0; i < 50; ++i) (void)bn.forward(x, true);  // converge running stats
  const Tensor y = bn.forward(x, false);
  float mean = 0;
  for (int r = 0; r < 64; ++r) mean += y.at(r, 0);
  EXPECT_NEAR(mean / 64, 0.0f, 0.05);
}

TEST(BatchNormLayer, GradCheck) {
  Rng rng(8);
  BatchNorm bn(4);
  Tensor x({6, 4});
  rng.fill_normal(x, 0, 1);
  Tensor gy({6, 4});
  rng.fill_normal(gy, 0, 1);

  auto loss = [&]() { return weighted(bn.forward(x, true), gy); };
  bn.gamma().zero_grad();
  bn.beta().zero_grad();
  (void)bn.forward(x, true);
  const Tensor gx = bn.backward(gy);
  EXPECT_LT(ascend::testing::max_grad_error(x, loss, gx), 3e-2);
  EXPECT_LT(ascend::testing::max_grad_error(bn.gamma().value, loss, bn.gamma().grad), 3e-2);
}

TEST(GeluLayer, ForwardBackwardConsistent) {
  Rng rng(9);
  Gelu gelu;
  Tensor x({2, 3});
  rng.fill_normal(x, 0, 1);
  Tensor gy({2, 3}, 1.0f);
  (void)gelu.forward(x);
  const Tensor gx = gelu.backward(gy);
  auto loss = [&]() { return gelu.forward(x).sum(); };
  EXPECT_LT(ascend::testing::max_grad_error(x, loss, gx), 2e-2);
}

// ---------------------------------------------------------------------------
// Const infer path — must be bit-exact with the eval-mode training forward
// and must not touch member state.
// ---------------------------------------------------------------------------

namespace {

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << what << " element " << i;
}

}  // namespace

TEST(InferPath, LsqQuantizerBitExactOnceInitialised) {
  LsqQuantizer q(QuantSpec::from_bsl(2));
  Rng rng(11);
  Tensor x({4, 6});
  rng.fill_normal(x, 0, 1);
  const Tensor ref = q.forward(x);  // initialises the step
  expect_bitwise_equal(q.infer(x), ref, "quantizer");
  // infer on other data agrees with the (state-mutating) training forward.
  Tensor x2({4, 6});
  rng.fill_normal(x2, 0, 0.5f);
  expect_bitwise_equal(q.infer(x2), q.forward(x2), "quantizer x2");
}

TEST(InferPath, LsqQuantizerDisabledIsIdentity) {
  LsqQuantizer q;
  Tensor x({2, 3});
  Rng rng(12);
  rng.fill_normal(x, 0, 1);
  expect_bitwise_equal(q.infer(x), x, "disabled quantizer");
}

TEST(InferPath, LinearBitExactWithForward) {
  Rng rng(13);
  Linear lin(5, 4, rng);
  lin.set_weight_quant(QuantSpec::from_bsl(2));
  lin.set_input_quant(QuantSpec::from_bsl(2));
  Tensor x({3, 5});
  rng.fill_normal(x, 0, 1);
  const Tensor ref = lin.forward(x);  // initialises both quantizer steps
  expect_bitwise_equal(lin.infer(x), ref, "linear");
  EXPECT_THROW(lin.infer(Tensor({3, 6})), std::invalid_argument);
}

TEST(InferPath, LinearFrozenSnapshotInvalidatedByApplyPrecision) {
  // The satellite acceptance case: re-quantizing after a served infer (the
  // apply_precision path calls set_weight_quant/set_input_quant) must change
  // results identically on the snapshot path and the non-snapshot path.
  Rng rng(21);
  Linear lin(6, 5, rng);
  lin.set_weight_quant(QuantSpec::from_bsl(16));
  lin.set_input_quant(QuantSpec::from_bsl(16));
  Tensor x({4, 6});
  rng.fill_normal(x, 0, 1);
  (void)lin.forward(x);  // calibrate the quantizer steps
  const Tensor served = lin.infer(x);  // freezes the W16 weight
  EXPECT_TRUE(lin.weight_quant().frozen(/*codes=*/false));

  // Tighten precision, as VisionTransformer::apply_precision does.
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/false)) << "apply_precision must thaw";
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/true)) << "apply_precision must thaw";
  const Tensor snapshot_path = lin.infer(x);

  // Non-snapshot control: quantize weights per call through the quantizer's
  // plain infer (the pre-snapshot serving behaviour).
  const Tensor manual = [&] {
    const Tensor xq = lin.input_quant().infer(x);
    const Tensor wq = lin.weight_quant().infer(lin.weight().value);
    Tensor y = matmul(xq, wq);
    for (int r = 0; r < y.dim(0); ++r)
      for (int c = 0; c < y.dim(1); ++c) y.at(r, c) += lin.bias().value[static_cast<std::size_t>(c)];
    return y;
  }();
  expect_bitwise_equal(snapshot_path, manual, "snapshot vs per-call requantization");

  // And the precision change must actually change the output vs the old spec.
  bool any_diff = false;
  for (std::size_t i = 0; i < served.size(); ++i) any_diff = any_diff || served[i] != manual[i];
  EXPECT_TRUE(any_diff) << "W2 must differ from the previously served W16 output";
}

TEST(InferPath, LinearThawRebuildsSnapshotAfterDirectWeightEdit) {
  Rng rng(22);
  Linear lin(4, 4, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  // 12 rows: at least every GEMM tier's MR, so infer multiplies through the
  // prepacked panels rather than the skinny seed loop.
  Tensor x({12, 4});
  rng.fill_normal(x, 0, 1);
  (void)lin.forward(x);
  (void)lin.infer(x);  // freeze
  ASSERT_TRUE(lin.weight_quant().frozen(/*codes=*/false));
  lin.weight().value[0] += 10.0f;  // out-of-band edit: the frozen weight is now stale
  lin.thaw();
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/false));
  const Tensor after = lin.infer(x);
  const Tensor manual = matmul(lin.input_quant().infer(x),
                               lin.weight_quant().infer(lin.weight().value));
  for (int r = 0; r < after.dim(0); ++r)
    for (int c = 0; c < after.dim(1); ++c)
      EXPECT_EQ(after.at(r, c), manual.at(r, c) + lin.bias().value[static_cast<std::size_t>(c)]);
}

// A full-precision Linear (disabled specs) has no quantized snapshot, but its
// weight is still packed once into panels: training and thaw() must drop
// them, or infer would serve weights the optimizer has since moved.
TEST(InferPath, FpLinearPanelsFollowTrainingAndThaw) {
  Rng rng(23);
  Linear lin(24, 20, rng);
  Tensor x({16, 24});
  rng.fill_normal(x, 0, 1);
  Tensor g({16, 20});
  rng.fill_normal(g, 0, 1);
  const Linear& served = lin;
  const auto expect_fresh = [&](const char* what) {
    Tensor want = matmul(x, lin.weight().value);
    for (int r = 0; r < want.dim(0); ++r)
      for (int c = 0; c < want.dim(1); ++c)
        want.at(r, c) += lin.bias().value[static_cast<std::size_t>(c)];
    const Tensor got = served.infer(x);
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << what << " " << i;
  };

  expect_fresh("first infer");
  ASSERT_TRUE(lin.weight_quant().frozen(/*codes=*/false));
  // No copy of the fp weight: only its panels are frozen.
  EXPECT_TRUE(lin.weight_quant().frozen_weight(lin.weight().value, /*codes=*/false).matrix.empty());

  // Training step: forward thaws, the optimizer moves the weights.
  AdamW opt([&] {
    std::vector<Param*> ps;
    lin.collect_params(ps);
    return ps;
  }(), /*lr=*/0.05f);
  opt.zero_grad();
  (void)lin.forward(x);
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/false));
  (void)lin.backward(g);
  opt.step();
  (void)lin.forward(x);
  expect_fresh("infer after a training step");

  // Direct weight edit followed by thaw().
  for (std::size_t i = 0; i < lin.weight().value.size(); ++i)
    lin.weight().value[i] = -lin.weight().value[i];
  lin.thaw();
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/false));
  expect_fresh("infer after a weight edit and thaw");
}

TEST(InferPath, LayerNormBitExactWithForward) {
  LayerNorm ln(6);
  Rng rng(14);
  ln.gamma().value[2] = 1.7f;
  ln.beta().value[4] = -0.3f;
  Tensor x({5, 6});
  rng.fill_normal(x, 0, 2);
  expect_bitwise_equal(ln.infer(x), ln.forward(x), "layernorm");
}

TEST(InferPath, BatchNormBitExactWithEvalForward) {
  BatchNorm bn(4);
  Rng rng(15);
  for (int step = 0; step < 3; ++step) {  // accumulate running stats
    Tensor x({8, 4});
    rng.fill_normal(x, 0.5f, 1.5f);
    (void)bn.forward(x, /*training=*/true);
  }
  Tensor x({6, 4});
  rng.fill_normal(x, 0, 1);
  expect_bitwise_equal(bn.infer(x), bn.forward(x, /*training=*/false), "batchnorm");
}

TEST(InferPath, BatchNormFrozenSnapshotThawRules) {
  BatchNorm bn(4);
  Rng rng(23);
  Tensor xt({8, 4});
  rng.fill_normal(xt, 0.3f, 1.2f);
  (void)bn.forward(xt, /*training=*/true);

  Tensor x({5, 4});
  rng.fill_normal(x, 0, 1);
  const Tensor first = bn.infer(x);
  EXPECT_TRUE(bn.frozen()) << "infer must freeze the per-channel scale/shift";
  expect_bitwise_equal(bn.infer(x), first, "snapshot serving is deterministic");

  // A training forward moves the running stats and must thaw.
  Tensor xt2({8, 4});
  rng.fill_normal(xt2, -0.8f, 2.0f);
  (void)bn.forward(xt2, /*training=*/true);
  EXPECT_FALSE(bn.frozen()) << "training forward must thaw the snapshot";
  const Tensor second = bn.infer(x);
  bool any_diff = false;
  for (std::size_t i = 0; i < second.size(); ++i) any_diff = any_diff || second[i] != first[i];
  EXPECT_TRUE(any_diff) << "rebuilt snapshot must reflect the updated stats";

  // Out-of-band stat edits require a manual thaw (same contract as Linear).
  bn.running_var()[0] *= 4.0f;
  bn.thaw();
  EXPECT_FALSE(bn.frozen());
  const Tensor third = bn.infer(x);
  EXPECT_NE(third.at(0, 0), second.at(0, 0));
  expect_bitwise_equal(bn.infer(x), third, "rebuilt snapshot serves consistently");
}

TEST(InferPath, GeluBitExactWithForward) {
  Gelu gelu;
  Rng rng(16);
  Tensor x({3, 7});
  rng.fill_normal(x, 0, 2);
  expect_bitwise_equal(gelu.infer(x), gelu.forward(x), "gelu");
}

// ---------------------------------------------------------------------------
// GELU decided straight into fc2's ternary codes.
// ---------------------------------------------------------------------------

namespace {

float bits_float(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

/// Steps across every regime of the cuts: the 1e-6 step clamp, half steps
/// below GELU's minimum magnitude (-1 codes exist), the edge of that
/// minimum, ordinary steps, and half steps past 6 where GELU(v) == v.
const std::vector<float>& cut_steps() {
  static const std::vector<float> steps = {1e-9f, 1e-6f, 0.01f, 0.2f,  0.3399f, 0.34f,
                                           1.0f,  2.5f,  12.0f, 13.0f, 134.0f,  1e4f};
  return steps;
}

float gelu_of(float v) { return gelu_forward(Tensor({1}, v))[0]; }

/// ternary_code(gelu_forward(x)) against gelu_codes_inplace over `x`,
/// element by element (NaN inputs code 0 on both sides).
void expect_codes_match(const Tensor& x, const GeluCodeCuts& cuts, const char* what) {
  const Tensor g = gelu_forward(x);
  Tensor codes = x;
  gelu_codes_inplace(codes, cuts);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(codes[i], ternary_code(g[i], cuts.half_step))
        << what << ": v=" << std::hexfloat << x[i] << " half_step=" << cuts.half_step;
}

}  // namespace

TEST(GeluCodes, EveryFloatNearEveryCutMatchesGeluThenThreshold) {
  constexpr std::int64_t kUlps = std::int64_t{1} << 20;
  for (const float step : cut_steps()) {
    const float half = 0.5f * std::max(step, 1e-6f);
    const GeluCodeCuts cuts = gelu_code_cuts(half);
    ASSERT_FALSE(std::isnan(cuts.one_from)) << "no +1 cut at half_step " << half;
    // -1 codes exist when s/2 is below |min GELU| ~ 0.16997.
    if (half < 0.1699f || half > 0.1701f) {
      EXPECT_EQ(!std::isnan(cuts.minus_lo), half < 0.1699f) << "half_step " << half;
    }
    std::vector<float> crossings = {cuts.one_from};
    if (!std::isnan(cuts.minus_lo)) {
      crossings.push_back(cuts.minus_lo);
      crossings.push_back(cuts.minus_hi);
    }
    for (const float c : crossings) {
      std::uint32_t bits;
      std::memcpy(&bits, &c, sizeof bits);
      // Walk the float line through the crossing: away from zero for
      // negatives means larger bit patterns, so walk by signed key.
      const std::int64_t key = (bits >> 31) ? -static_cast<std::int64_t>(bits & 0x7fffffffu)
                                            : static_cast<std::int64_t>(bits);
      Tensor x = Tensor::uninitialized({1, static_cast<int>(2 * kUlps + 1)});
      for (std::int64_t d = -kUlps; d <= kUlps; ++d) {
        const std::int64_t k = key + d;
        x[static_cast<std::size_t>(d + kUlps)] =
            k < 0 ? bits_float(0x80000000u | static_cast<std::uint32_t>(-k))
                  : bits_float(static_cast<std::uint32_t>(k));
      }
      expect_codes_match(x, cuts, "near a cut");
      // The cut is a change of code: the code at the cut differs from the
      // code at one end of the walk.
      const float at = ternary_code(gelu_of(c), half);
      EXPECT_TRUE(ternary_code(gelu_of(x[0]), half) != at ||
                  ternary_code(gelu_of(x[x.size() - 1]), half) != at)
          << "crossing " << c << " at half_step " << half;
    }
  }
}

TEST(GeluCodes, RandomFloatsAndSpecialsMatchGeluThenThreshold) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::mt19937 gen(77);
  // Uniform bit patterns cover the whole range: both signs, every exponent,
  // denormals, infinities and NaNs.
  Tensor x = Tensor::uninitialized({1, 1000000});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = bits_float(static_cast<std::uint32_t>(gen()));
  const std::vector<float> specials = {0.0f,    -0.0f,    kInf,         -kInf,
                                       std::numeric_limits<float>::quiet_NaN(),
                                       FLT_MAX, -FLT_MAX, FLT_TRUE_MIN, -FLT_TRUE_MIN,
                                       FLT_MIN, -FLT_MIN, -0.7517916f,  6.0f};
  std::copy(specials.begin(), specials.end(), x.data());
  for (const float step : cut_steps()) {
    const GeluCodeCuts cuts = gelu_code_cuts(0.5f * std::max(step, 1e-6f));
    expect_codes_match(x, cuts, "random bits");
    // Ordinary activations, dense around the cuts of this step.
    Tensor act({64, 512});
    Rng rng(static_cast<std::uint64_t>(step * 1e6f) + 3);
    rng.fill_normal(act, 0.0f, 2.0f * std::max(step, 0.5f));
    expect_codes_match(act, cuts, "normal activations");
  }
}

namespace {

/// fc1 -> GELU -> fc2 with W2A2 specs, calibrated by one training forward;
/// fc2's input step is then pinned to `fc2_step`.
struct W2a2Mlp {
  Rng rng{91};
  vit::Mlp mlp{16, 64, rng};
  Tensor x{{24, 16}};

  explicit W2a2Mlp(float fc2_step) {
    for (Linear* lin : {&mlp.fc1(), &mlp.fc2()}) {
      lin->set_weight_quant(QuantSpec::ternary());
      lin->set_input_quant(QuantSpec::ternary());
    }
    rng.fill_normal(x, 0.0f, 1.5f);
    (void)mlp.forward(x);  // latch every step
    mlp.fc2().input_quant().restore_calibration(QuantSpec::ternary(), true, fc2_step);
  }

  /// The unfused reference: GELU materialised, then fc2's own threshold.
  Tensor unfused() { return mlp.fc2().infer(Gelu().infer(mlp.fc1().infer(x))); }
};

}  // namespace

TEST(MlpInfer, GeluCodePathBitExactWithUnfusedPath) {
  for (const float step : {1e-9f, 0.05f, 0.3f, 0.9f, 2.5f, 40.0f}) {
    W2a2Mlp rig(step);
    ASSERT_TRUE(rig.mlp.fc2().serves_ternary_codes());
    const vit::Mlp& cmlp = rig.mlp;
    expect_bitwise_equal(cmlp.infer(rig.x), rig.unfused(), "fused GELU codes");
    EXPECT_TRUE(rig.mlp.fc2().input_quant().cuts_frozen());
  }
}

TEST(MlpInfer, DensePathWhenFc2ServesNoCodes) {
  // An uncalibrated fc2 input quantizer derives its step from each batch:
  // Linear serves the dense fake-quantized path, and so must the MLP.
  W2a2Mlp rig(0.3f);
  rig.mlp.fc2().set_input_quant(QuantSpec::ternary());
  EXPECT_FALSE(rig.mlp.fc2().serves_ternary_codes());
  const vit::Mlp& cmlp = rig.mlp;
  expect_bitwise_equal(cmlp.infer(rig.x), rig.unfused(), "uncalibrated fc2 input");
  EXPECT_FALSE(rig.mlp.fc2().input_quant().cuts_frozen());
}

TEST(MlpInfer, GeluCutsThawWithTheInputStep) {
  W2a2Mlp rig(2.5f);
  const vit::Mlp& cmlp = rig.mlp;
  (void)cmlp.infer(rig.x);
  LsqQuantizer& q = rig.mlp.fc2().input_quant();
  ASSERT_TRUE(q.cuts_frozen());
  // A new step drops the cuts, and the next infer serves the new step's
  // codes; a training forward and thaw() drop them too.
  q.restore_calibration(QuantSpec::ternary(), true, 0.3f);
  EXPECT_FALSE(q.cuts_frozen());
  expect_bitwise_equal(cmlp.infer(rig.x), rig.unfused(), "after restore_calibration");
  EXPECT_EQ(q.frozen_gelu_code_cuts().half_step, 0.15f);
  (void)rig.mlp.forward(rig.x);
  EXPECT_FALSE(q.cuts_frozen());
  (void)q.frozen_gelu_code_cuts();
  ASSERT_TRUE(q.cuts_frozen());
  q.thaw();
  EXPECT_FALSE(q.cuts_frozen());
  EXPECT_THROW((void)LsqQuantizer(QuantSpec::from_bsl(16)).frozen_gelu_code_cuts(),
               std::logic_error);
}
