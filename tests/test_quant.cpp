// Unit tests for LSQ quantization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/quant.h"
#include "nn/rng.h"
#include "test_util.h"

using namespace ascend::nn;

TEST(QuantSpecTest, FromBslLevels) {
  const QuantSpec t = QuantSpec::from_bsl(2);
  EXPECT_EQ(t.qn, -1);
  EXPECT_EQ(t.qp, 1);
  EXPECT_EQ(t.levels(), 3);  // ternary, matching a 2b thermometer BSL
  const QuantSpec r = QuantSpec::from_bsl(16);
  EXPECT_EQ(r.levels(), 17);
  EXPECT_THROW(QuantSpec::from_bsl(3), std::invalid_argument);
  EXPECT_THROW(QuantSpec::from_bsl(0), std::invalid_argument);
  EXPECT_FALSE(QuantSpec::off().enabled);
}

TEST(LsqQuantizerTest, DisabledIsIdentity) {
  LsqQuantizer q;
  Rng rng(1);
  Tensor x({3, 3});
  rng.fill_normal(x, 0, 1);
  const Tensor y = q.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
  const Tensor g = q.backward(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(g[i], y[i]);
}

TEST(LsqQuantizerTest, TernaryOutputOnGrid) {
  LsqQuantizer q(QuantSpec::ternary());
  Rng rng(2);
  Tensor x({64, 4});
  rng.fill_normal(x, 0, 1);
  const Tensor y = q.forward(x);
  const float s = q.step();
  ASSERT_GT(s, 0.0f);
  std::set<int> levels;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float level = y[i] / s;
    EXPECT_NEAR(level, std::round(level), 1e-4);
    levels.insert(static_cast<int>(std::lround(level)));
    EXPECT_GE(level, -1.01f);
    EXPECT_LE(level, 1.01f);
  }
  EXPECT_GE(levels.size(), 2u);  // a Gaussian hits multiple levels
}

TEST(LsqQuantizerTest, SteMasksClippedElements) {
  LsqQuantizer q(QuantSpec::ternary());
  // Initialise the learned step on well-behaved data first (the LSQ init
  // scales with mean|x|, so the outliers must not be part of it).
  Tensor warm({1, 4});
  warm[0] = 0.5f;
  warm[1] = -0.5f;
  warm[2] = 0.3f;
  warm[3] = -0.2f;
  (void)q.forward(warm);
  const float s = q.step();
  ASSERT_GT(s, 0.0f);

  Tensor x({1, 4});
  x[0] = 0.2f * s;    // inside
  x[1] = 100.0f * s;  // clipped high
  x[2] = -100.0f * s; // clipped low
  x[3] = 0.0f;        // inside
  (void)q.forward(x);
  Tensor gy({1, 4}, 1.0f);
  const Tensor gx = q.backward(gy);
  EXPECT_FLOAT_EQ(gx[1], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
  EXPECT_FLOAT_EQ(gx[0], 1.0f);
  EXPECT_FLOAT_EQ(gx[3], 1.0f);
}

TEST(LsqQuantizerTest, StepGradientMatchesLsqRule) {
  // The LSQ step gradient is a *surrogate* (the STE flows through round()),
  // so it intentionally differs from the numerical derivative of the
  // piecewise-constant forward. Check against an independent implementation
  // of the published rule: d v/d s = (q - x/s) inside, q when clipped.
  LsqQuantizer q(QuantSpec::from_bsl(4));
  Rng rng(3);
  Tensor x({8, 8});
  rng.fill_normal(x, 0, 1);
  Tensor gy({8, 8});
  rng.fill_normal(gy, 0, 1);

  (void)q.forward(x);  // initialise the step
  std::vector<Param*> ps;
  q.collect_params(ps);
  ASSERT_EQ(ps.size(), 1u);
  Param* step = ps[0];
  step->zero_grad();
  (void)q.forward(x);
  (void)q.backward(gy);
  const float analytic = step->grad[0];

  const float s = step->value[0];
  const float gradscale = 1.0f / std::sqrt(static_cast<float>(x.size()) * 2.0f);
  double expect = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float xs = x[i] / s;
    const float qv = std::clamp(std::round(xs), -2.0f, 2.0f);
    const bool inside = xs > -2.0f && xs < 2.0f;
    expect += static_cast<double>(gy[i]) * (inside ? (qv - xs) : qv);
  }
  EXPECT_NEAR(analytic, static_cast<float>(expect) * gradscale,
              1e-4f + 0.01f * std::fabs(analytic));
}

TEST(LsqQuantizerTest, ResetSpecReinitialises) {
  LsqQuantizer q(QuantSpec::ternary());
  Rng rng(4);
  Tensor x({4, 4});
  rng.fill_normal(x, 0, 1);
  (void)q.forward(x);
  const float s1 = q.step();
  q.reset_spec(QuantSpec::from_bsl(16));
  (void)q.forward(x);
  const float s2 = q.step();
  EXPECT_NE(s1, s2);  // finer grid -> smaller initial step
  EXPECT_LT(s2, s1);
}

// infer takes its tensor by value: a moved-in tensor is quantized in its own
// buffer (a disabled quantizer hands it straight back), while a moved-in
// read-only borrowed view is copied first and left untouched.
TEST(LsqQuantizerTest, InferQuantizesAMovedTensorInPlace) {
  LsqQuantizer q(QuantSpec::from_bsl(4));
  Rng rng(5);
  Tensor x({8, 4});
  rng.fill_normal(x, 0, 1);
  const Tensor ref = q.forward(x);  // latches the step; infer is bit-exact with it

  const std::uint64_t copies = Tensor::copies();
  Tensor owned = x;
  const float* buffer = owned.data();
  const Tensor y = q.infer(std::move(owned));
  EXPECT_EQ(y.data(), buffer);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], ref[i]) << i;

  Tensor pass = x;
  buffer = pass.data();
  const Tensor same = LsqQuantizer().infer(std::move(pass));
  EXPECT_EQ(same.data(), buffer);
  EXPECT_EQ(Tensor::copies() - copies, 2u);  // only the two `= x` above

  std::vector<float> blob(x.data(), x.data() + x.size());
  const Tensor from_view = q.infer(Tensor::borrow(x.shape(), blob.data()));
  EXPECT_NE(from_view.data(), blob.data());
  EXPECT_FALSE(from_view.borrowed());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(from_view[i], ref[i]) << i;
    EXPECT_EQ(blob[i], x[i]) << i;
  }
}

TEST(LsqQuantizerTest, InferAddIsInferOfTheSumInTheSecondOperandsStorage) {
  Rng rng(9);
  Tensor a({8, 6}), b({8, 6});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  LsqQuantizer calibrated(QuantSpec::from_bsl(16));
  (void)calibrated.forward(add(a, b));
  // Calibrated, uncalibrated (the step comes from the sum itself) and
  // disabled (the plain sum).
  const LsqQuantizer uncalibrated(QuantSpec::from_bsl(16)), disabled;
  for (const LsqQuantizer* q : {&std::as_const(calibrated), &uncalibrated, &disabled}) {
    const Tensor want = q->infer(add(a, b));
    Tensor owned = b;
    const float* buffer = owned.data();
    const Tensor got = q->infer_add(a, std::move(owned));
    EXPECT_EQ(got.data(), buffer);
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
    std::vector<float> blob(b.data(), b.data() + b.size());
    const Tensor from_view = q->infer_add(a, Tensor::borrow(b.shape(), blob.data()));
    EXPECT_FALSE(from_view.borrowed());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(from_view[i], want[i]) << i;
      EXPECT_EQ(blob[i], b[i]) << i;
    }
    EXPECT_THROW((void)q->infer_add(Tensor({8, 5}), Tensor(b)), std::invalid_argument);
  }
}

TEST(LsqQuantizerTest, FrozenWeightMatchesInferAndMemoizes) {
  LsqQuantizer q(QuantSpec::ternary());
  Rng rng(6);
  Tensor w({4, 4});
  rng.fill_normal(w, 0, 1);
  (void)q.forward(w);  // latch the step
  EXPECT_FALSE(q.frozen(/*codes=*/false));
  const Tensor ref = q.infer(w);
  const FrozenWeight& a = q.frozen_weight(w, /*codes=*/false);
  EXPECT_TRUE(q.frozen(/*codes=*/false));
  EXPECT_FALSE(q.frozen(/*codes=*/true));
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(a.matrix[i], ref[i]);
  // Memoized: the second call hands back the same slot.
  EXPECT_EQ(&q.frozen_weight(w, /*codes=*/false), &a);
}

TEST(LsqQuantizerTest, FrozenSnapshotThawedByResetSpecAndTraining) {
  LsqQuantizer q(QuantSpec::ternary());
  Rng rng(7);
  Tensor w({4, 4});
  rng.fill_normal(w, 0, 1);
  (void)q.forward(w);
  // One slot: asking for the dense matrix after the codes replaces them.
  (void)q.frozen_weight(w, /*codes=*/true);
  ASSERT_TRUE(q.frozen(/*codes=*/true));
  (void)q.frozen_weight(w, /*codes=*/false);
  ASSERT_TRUE(q.frozen(/*codes=*/false));
  ASSERT_FALSE(q.frozen(/*codes=*/true));

  // reset_spec (the apply_precision path) must thaw, panels included; the
  // rebuilt matrix reflects the new spec, bit-exact with the per-call path.
  q.reset_spec(QuantSpec::from_bsl(16));
  EXPECT_FALSE(q.frozen(/*codes=*/false));
  EXPECT_FALSE(q.frozen(/*codes=*/true));
  const Tensor fresh = q.infer(w);
  const FrozenWeight& rebuilt = q.frozen_weight(w, /*codes=*/false);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(rebuilt.matrix[i], fresh[i]);
  // The panels pack the rebuilt matrix: unit-vector probes through them
  // (8 rows, enough for every tier to take the packed path) pick out its rows.
  EXPECT_EQ(rebuilt.panels.tier, gemm::kernel());
  Tensor probe({8, 4}), rows({8, 4});
  for (int r = 0; r < 8; ++r) probe.at(r, r % 4) = 1.0f;
  gemm::gemm_nn_packed(8, probe.data(), 4, rebuilt.panels, rebuilt.matrix.data(), 4, rows.data(),
                       4);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_EQ(rows.at(r, c), rebuilt.matrix.at(r % 4, c));

  // A training forward must thaw too (the step is about to move).
  (void)q.forward(w);
  EXPECT_FALSE(q.frozen(/*codes=*/false));

  // Disabled spec: no copy of the weight is frozen, but the panels of the
  // unquantized matrix are, dropped by a training forward like any other.
  LsqQuantizer off;
  EXPECT_TRUE(off.frozen_weight(w, /*codes=*/false).matrix.empty());
  EXPECT_TRUE(off.frozen(/*codes=*/false));
  (void)off.forward(w);
  EXPECT_FALSE(off.frozen(/*codes=*/false));
}

TEST(LsqQuantizerTest, CopiesDropTheFrozenSnapshot) {
  Rng rng(8);
  Tensor w({3, 3});
  rng.fill_normal(w, 0, 1);
  const auto make_frozen = [&](QuantSpec spec) {
    auto q = std::make_unique<LsqQuantizer>(spec);
    (void)q->forward(w);
    (void)q->frozen_weight(w, /*codes=*/false);
    if (spec.qp == 1) (void)q->frozen_gelu_code_cuts();
    return q;
  };
  const auto ref = make_frozen(QuantSpec::ternary());
  const FrozenWeight& want = ref->frozen_weight(w, /*codes=*/false);
  // Each way of making a quantizer from a frozen one carries the spec and the
  // step but leaves the destination thawed, both slots; the assignments
  // land on a destination frozen under another spec (clone_for_serving
  // relies on the copy assignment).
  for (const std::string how : {"copy-construct", "copy-assign", "move-construct", "move-assign"}) {
    SCOPED_TRACE(how);
    auto src = make_frozen(QuantSpec::ternary());
    auto dst = make_frozen(QuantSpec::from_bsl(16));
    if (how == "copy-construct") dst = std::make_unique<LsqQuantizer>(*src);
    if (how == "copy-assign") *dst = *src;
    if (how == "move-construct") dst = std::make_unique<LsqQuantizer>(std::move(*src));
    if (how == "move-assign") *dst = std::move(*src);
    EXPECT_FALSE(dst->frozen(/*codes=*/false));
    EXPECT_FALSE(dst->cuts_frozen());
    if (how.rfind("copy", 0) == 0) {
      EXPECT_TRUE(src->frozen(/*codes=*/false));  // a copy leaves its source frozen
    }
    EXPECT_EQ(dst->spec().qp, 1);
    EXPECT_EQ(dst->step(), ref->step());
    // The destination rebuilds an identical matrix and panels from its own state.
    const FrozenWeight& got = dst->frozen_weight(w, /*codes=*/false);
    EXPECT_NE(&got, &want);
    for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(got.matrix[i], want.matrix[i]);
    EXPECT_EQ(got.panels.panels, want.panels.panels);
    EXPECT_EQ(dst->frozen_gelu_code_cuts().half_step, ref->frozen_gelu_code_cuts().half_step);
  }
}

TEST(LsqQuantizerTest, QuantizationErrorShrinksWithBsl) {
  Rng rng(5);
  Tensor x({128, 4});
  rng.fill_normal(x, 0, 1);
  auto mean_err = [&](int bsl) {
    LsqQuantizer q(QuantSpec::from_bsl(bsl));
    const Tensor y = q.forward(x);
    double e = 0;
    for (std::size_t i = 0; i < x.size(); ++i) e += std::fabs(y[i] - x[i]);
    return e / static_cast<double>(x.size());
  };
  EXPECT_GT(mean_err(2), mean_err(8));
  EXPECT_GT(mean_err(8), mean_err(32));
}

// ---------------------------------------------------------------------------
// The branch-free rounding against clamp(round(x / s), qn, qp), bit for bit.
// ---------------------------------------------------------------------------

namespace {

bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof a) == 0;
}

float reference_level(float x, float s, const QuantSpec& spec) {
  return std::clamp(std::round(x / s), static_cast<float>(spec.qn), static_cast<float>(spec.qp));
}

QuantSpec make_spec(int qn, int qp) {
  QuantSpec spec;
  spec.enabled = true;
  spec.qn = qn;
  spec.qp = qp;
  return spec;
}

/// The fused residual requantize on every tier: infer_add(a, x) against the
/// reference rounding of a + x and, bit for bit, against infer(add(a, x)).
/// The addends are `xs` rotated, so every edge value meets every other.
void expect_infer_add_matches(const LsqQuantizer& q, float s, const QuantSpec& spec,
                              const Tensor& x) {
  Tensor a = Tensor::uninitialized(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) a[i] = x[(i * 7 + 3) % x.size()];
  const ascend::testing::TierGuard guard;
  for (const gemm::Kernel tier : ascend::testing::supported_tiers()) {
    gemm::set_kernel(tier);
    const Tensor fused = q.infer_add(a, Tensor(x));
    const Tensor unfused = q.infer(add(a, x));
    ASSERT_TRUE(ascend::testing::same_bits(fused.data(), unfused.data(), x.size()))
        << gemm::kernel_name() << " s=" << s;
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_TRUE(same_bits(fused[i], reference_level(a[i] + x[i], s, spec) * s))
          << gemm::kernel_name() << " a=" << a[i] << " x=" << x[i] << " s=" << s;
  }
}

/// Quantizes `xs` at `step` through infer on every GEMM tier, infer_add,
/// forward and (ternary specs) the frozen weight codes, and compares each
/// against the reference rounding. Every length from 1 to 33 runs too, so
/// the wide tiers' tails meet the edge values.
void expect_rounding_matches(const QuantSpec& spec, float step, const std::vector<float>& xs) {
  Tensor x = Tensor::uninitialized({1, static_cast<int>(xs.size())});
  std::copy(xs.begin(), xs.end(), x.data());
  LsqQuantizer q;
  q.restore_calibration(spec, /*calibrated=*/true, step);
  const float s = std::max(step, 1e-6f);
  expect_infer_add_matches(q, s, spec, x);
  {
    const ascend::testing::TierGuard guard;
    for (const gemm::Kernel tier : ascend::testing::supported_tiers()) {
      gemm::set_kernel(tier);
      for (int n = 1; n <= std::min<int>(33, static_cast<int>(xs.size())); ++n) {
        Tensor head = Tensor::uninitialized({1, n});
        std::copy(xs.end() - n, xs.end(), head.data());
        const Tensor got = q.infer(head);
        for (int i = 0; i < n; ++i)
          ASSERT_TRUE(same_bits(got[i], reference_level(head[i], s, spec) * s))
              << gemm::kernel_name() << " n=" << n << " x=" << head[i] << " s=" << s;
      }
    }
  }
  const Tensor inferred = q.infer(x);
  const Tensor trained = q.forward(x);
  const bool ternary = spec.qn == -1 && spec.qp == 1;
  const Tensor* levels = ternary ? &q.frozen_weight(x, /*codes=*/true).matrix : nullptr;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float level = reference_level(xs[i], s, spec);
    const float want = level * s;
    ASSERT_TRUE(same_bits(inferred[i], want))
        << "infer x=" << xs[i] << " s=" << s << " qn=" << spec.qn << " qp=" << spec.qp
        << " got " << inferred[i] << " want " << want;
    ASSERT_TRUE(same_bits(trained[i], want)) << "forward x=" << xs[i] << " s=" << s;
    if (levels != nullptr) {
      ASSERT_TRUE(same_bits((*levels)[i], level)) << "codes x=" << xs[i] << " s=" << s;
    }
  }
}

const std::vector<QuantSpec>& rounding_specs() {
  static const std::vector<QuantSpec> specs = {QuantSpec::ternary(), QuantSpec::from_bsl(16),
                                               make_spec(0, 3), make_spec(-4, 1)};
  return specs;
}

}  // namespace

TEST(LsqRounding, RandomDrawsMatchRoundAndClamp) {
  std::mt19937 gen(2024);
  std::uniform_real_distribution<float> log_step(std::log(1e-6f), std::log(1e3f));
  std::uniform_real_distribution<float> log_spread(std::log(0.1f), std::log(100.0f));
  std::bernoulli_distribution negative(0.5);
  std::size_t draws = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const QuantSpec& spec = rounding_specs()[static_cast<std::size_t>(trial) % rounding_specs().size()];
    const float step = std::exp(log_step(gen));
    std::vector<float> xs(1024);
    for (float& v : xs) {
      const float mag = std::exp(log_spread(gen)) * step;
      v = negative(gen) ? -mag : mag;
    }
    expect_rounding_matches(spec, step, xs);
    draws += xs.size();
  }
  EXPECT_GE(draws, 100000u);
}

TEST(LsqRounding, EdgeValuesMatchRoundAndClamp) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float steps[] = {1e-9f, 1e-6f, 3e-4f, 0.0371f, 1.0f, 2.5f, 134.0f, 1e3f};
  for (const QuantSpec& spec : rounding_specs()) {
    for (const float step : steps) {
      const float s = std::max(step, 1e-6f);
      std::vector<float> xs = {0.0f,  -0.0f, kInf,       -kInf, std::numeric_limits<float>::quiet_NaN(),
                               FLT_MAX, -FLT_MAX, FLT_TRUE_MIN, -FLT_TRUE_MIN, 1e-40f, -1e-40f,
                               FLT_MIN, -FLT_MIN, s * 2147483648.0f, -s * 2147483648.0f,
                               s * 3e9f, -s * 3e9f, s * 1e30f, -s * 1e30f};
      // Every half step out to one level past the clip, and the floats next
      // to it on both sides.
      for (int k = -(std::max(-spec.qn, spec.qp) + 2); k <= std::max(-spec.qn, spec.qp) + 1; ++k) {
        const float half = (static_cast<float>(k) + 0.5f) * s;
        xs.push_back(half);
        xs.push_back(std::nextafter(half, kInf));
        xs.push_back(std::nextafter(half, -kInf));
      }
      expect_rounding_matches(spec, step, xs);
    }
  }
}
