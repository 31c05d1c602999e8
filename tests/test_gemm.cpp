// Blocked/tiled GEMM kernel subsystem (nn/gemm.h): blocked kernels vs the
// seed's reference loops across awkward shapes, packed-ternary vs dense
// frozen Linear::infer equivalence, run-to-run / across-thread-count
// determinism, and ASCEND_GEMM=reference bit-exactness vs the seed loops.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/attention.h"
#include "nn/gemm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "runtime/thread_pool.h"

using namespace ascend;
using namespace ascend::nn;

namespace {

/// Restores the process-wide kernel backend on scope exit.
struct BackendGuard {
  gemm::Backend saved = gemm::backend();
  ~BackendGuard() { gemm::set_backend(saved); }
};

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_normal(t, 0.0f, 1.0f);
  return t;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << what << " element " << i;
}

// m/k/n triples deliberately not multiples of the micro-tile: 1x1x1 up to
// 65x67x63, plus a k > 256 case that crosses the KC contraction block.
const std::vector<std::array<int, 3>> kAwkwardShapes = {
    {1, 1, 1},  {2, 3, 4},    {5, 7, 9},    {17, 1, 33},  {1, 64, 1},   {7, 300, 5},
    {33, 16, 48}, {64, 64, 64}, {65, 67, 63}, {96, 96, 96}, {13, 280, 31},
};

}  // namespace

// ---------------------------------------------------------------------------
// Blocked kernels vs reference loops
// ---------------------------------------------------------------------------

TEST(GemmBlocked, MatmulMatchesReferenceAcrossAwkwardShapes) {
  BackendGuard guard;
  Rng rng(3);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    gemm::set_backend(gemm::Backend::kReference);
    const Tensor ref = matmul(a, b);
    gemm::set_backend(gemm::Backend::kBlocked);
    const Tensor got = matmul(a, b);
    // Long contractions (k > KC = 256 splits the k-block fold, and FMA
    // contraction differs between kernels) accumulate a little more rounding.
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

TEST(GemmBlocked, MatmulTnMatchesReferenceAcrossAwkwardShapes) {
  BackendGuard guard;
  Rng rng(4);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({k, m}, rng);  // stored transposed
    const Tensor b = random_tensor({k, n}, rng);
    gemm::set_backend(gemm::Backend::kReference);
    const Tensor ref = matmul_tn(a, b);
    gemm::set_backend(gemm::Backend::kBlocked);
    const Tensor got = matmul_tn(a, b);
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

TEST(GemmBlocked, MatmulNtMatchesReferenceAcrossAwkwardShapes) {
  BackendGuard guard;
  Rng rng(5);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({n, k}, rng);  // B stored [n, k]
    gemm::set_backend(gemm::Backend::kReference);
    const Tensor ref = matmul_nt(a, b);
    gemm::set_backend(gemm::Backend::kBlocked);
    const Tensor got = matmul_nt(a, b);
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

TEST(GemmBlocked, AttentionInferMatchesReferenceBackend) {
  // Integration check for the strided pointer kernels: MSA::infer reads
  // Q/K/V panels straight out of the fused qkv projection.
  BackendGuard guard;
  Rng rng(6);
  MultiHeadSelfAttention msa(16, 2, rng);
  const int batch = 2, tokens = 5;
  const Tensor x = random_tensor({batch * tokens, 16}, rng);
  gemm::set_backend(gemm::Backend::kReference);
  const Tensor ref = msa.infer(x, batch, tokens);
  gemm::set_backend(gemm::Backend::kBlocked);
  const Tensor got = msa.infer(x, batch, tokens);
  EXPECT_LE(max_abs_diff(ref, got), 1e-5f);
}

// ---------------------------------------------------------------------------
// Micro-kernel tiers (base / avx2 / avx512)
// ---------------------------------------------------------------------------

namespace {

/// Restores the process-wide micro-kernel tier on scope exit.
struct KernelGuard {
  gemm::Kernel saved = gemm::kernel();  // resolved tier, never kAuto
  ~KernelGuard() { gemm::set_kernel(saved); }
};

}  // namespace

TEST(KernelTiers, NameAndQueryAgree) {
  KernelGuard guard;
  EXPECT_NE(gemm::kernel(), gemm::Kernel::kAuto);  // kernel() reports resolved
  EXPECT_TRUE(gemm::kernel_supported(gemm::Kernel::kAuto));
  EXPECT_TRUE(gemm::kernel_supported(gemm::Kernel::kBase));
  gemm::set_kernel(gemm::Kernel::kBase);
  EXPECT_EQ(gemm::kernel(), gemm::Kernel::kBase);
  EXPECT_STREQ(gemm::kernel_name(), "base");
  if (gemm::kernel_supported(gemm::Kernel::kAvx512)) {
    gemm::set_kernel(gemm::Kernel::kAvx512);
    EXPECT_STREQ(gemm::kernel_name(), "avx512");
  }
}

TEST(KernelTiers, Avx512BitIdenticalToAvx2) {
  // The determinism contract of the f32 FMA tiers: widening the vector adds
  // independent accumulator lanes but never reassociates a chain. Shapes keep
  // m >= 8 so both tiers route the blocked path (below its MR a tier falls
  // back to the shared seed-order loop, which is tier-independent anyway).
  if (!gemm::kernel_supported(gemm::Kernel::kAvx512))
    GTEST_SKIP() << "host lacks AVX-512F";
  KernelGuard guard;
  BackendGuard bguard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(19);
  for (const auto& [m, k, n] : {std::array<int, 3>{8, 64, 32},
                                {65, 67, 63},
                                {96, 96, 96},
                                {13, 280, 31},
                                {33, 16, 48}}) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor at = random_tensor({k, m}, rng);
    const Tensor bt = random_tensor({n, k}, rng);
    gemm::set_kernel(gemm::Kernel::kAvx2);
    const Tensor nn2 = matmul(a, b);
    const Tensor tn2 = matmul_tn(at, b);
    const Tensor nt2 = matmul_nt(a, bt);
    gemm::set_kernel(gemm::Kernel::kAvx512);
    expect_bitwise_equal(matmul(a, b), nn2, "avx512 vs avx2 nn");
    expect_bitwise_equal(matmul_tn(at, b), tn2, "avx512 vs avx2 tn");
    expect_bitwise_equal(matmul_nt(a, bt), nt2, "avx512 vs avx2 nt");
  }
}

TEST(KernelTiers, Avx512MatchesReferenceAcrossAwkwardShapes) {
  if (!gemm::kernel_supported(gemm::Kernel::kAvx512))
    GTEST_SKIP() << "host lacks AVX-512F";
  KernelGuard guard;
  BackendGuard bguard;
  gemm::set_kernel(gemm::Kernel::kAvx512);
  Rng rng(20);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    gemm::set_backend(gemm::Backend::kReference);
    const Tensor ref = matmul(a, b);
    gemm::set_backend(gemm::Backend::kBlocked);
    const Tensor got = matmul(a, b);
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

// ---------------------------------------------------------------------------
// ASCEND_GEMM=reference bit-exactness vs the seed loops
// ---------------------------------------------------------------------------

namespace {

// The seed's naive matmul, reimplemented verbatim (tests/test_gemm.cpp is the
// bit-exactness pin for the reference backend).
Tensor seed_matmul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    float* crow = pc + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = pa[static_cast<std::size_t>(i) * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace

TEST(GemmReference, BitExactWithSeedLoops) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kReference);
  Rng rng(7);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    expect_bitwise_equal(matmul(a, b), seed_matmul(a, b), "reference matmul vs seed");
  }
}

// ---------------------------------------------------------------------------
// Determinism: run-to-run and across thread counts
// ---------------------------------------------------------------------------

TEST(GemmDeterminism, BlockedBitIdenticalRunToRun) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(8);
  const Tensor a = random_tensor({65, 67}, rng);
  const Tensor b = random_tensor({67, 63}, rng);
  expect_bitwise_equal(matmul(a, b), matmul(a, b), "run-to-run");
  const Tensor at = random_tensor({67, 65}, rng);
  expect_bitwise_equal(matmul_tn(at, b), matmul_tn(at, b), "tn run-to-run");
  const Tensor bt = random_tensor({63, 67}, rng);
  expect_bitwise_equal(matmul_nt(a, bt), matmul_nt(a, bt), "nt run-to-run");
}

TEST(GemmDeterminism, BitIdenticalAcrossThreadCountsAndPools) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(9);
  // Tall enough for several row bands (MC is at most 144 rows per band).
  const int m = 400, k = 96, n = 70;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);

  Tensor serial({m, n});
  gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, serial.data(), n);

  for (int threads : {1, 2, 3, 4}) {
    runtime::ThreadPool pool(threads);
    gemm::GemmOptions opts;
    opts.pool = &pool;
    Tensor c({m, n});
    gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n, opts);
    expect_bitwise_equal(c, serial, "pool-parallel vs serial");
  }
}

TEST(GemmDeterminism, ConcurrentPoolCallersAgree) {
  // Two caller threads sharing one pool (the TSan job drives this): results
  // must match the serial product bit-for-bit.
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(10);
  const int m = 300, k = 64, n = 48;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor serial({m, n});
  gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, serial.data(), n);

  runtime::ThreadPool pool(3);
  std::vector<Tensor> results(4, Tensor({m, n}));
  std::vector<std::thread> callers;
  callers.reserve(results.size());
  for (auto& out : results)
    callers.emplace_back([&, po = &out] {
      gemm::GemmOptions opts;
      opts.pool = &pool;
      gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, po->data(), n, opts);
    });
  for (auto& t : callers) t.join();
  for (const auto& out : results) expect_bitwise_equal(out, serial, "concurrent caller");
}

// ---------------------------------------------------------------------------
// Packed-ternary serving path
// ---------------------------------------------------------------------------

namespace {

/// Dense control: per-call quantization through the quantizer's plain infer
/// (no snapshots involved), plus bias.
Tensor dense_linear_control(Linear& lin, const Tensor& x) {
  const Tensor xq = lin.input_quant().infer(x);
  const Tensor wq = lin.weight_quant().infer(lin.weight().value);
  Tensor y = matmul(xq, wq);
  for (int r = 0; r < y.dim(0); ++r)
    for (int c = 0; c < y.dim(1); ++c)
      y.at(r, c) += lin.bias().value[static_cast<std::size_t>(c)];
  return y;
}

}  // namespace

TEST(PackedTernary, LinearInferMatchesDenseFrozenTernaryActivations) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(11);
  Linear lin(96, 80, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  Tensor x = random_tensor({5, 96}, rng);
  for (int c = 0; c < 96; ++c) x.at(2, c) = 0.0f;  // an all-zero row
  (void)lin.forward(x);  // latch the LSQ steps
  const Tensor packed = lin.infer(x);
  EXPECT_TRUE(lin.weight_quant().packed_frozen());
  const Tensor dense = dense_linear_control(lin, x);
  EXPECT_LE(max_abs_diff(packed, dense), 1e-5f);
}

TEST(PackedTernary, KernelRejectsRowsOfMixedMagnitude) {
  // The kernel serves ternary activation rows only (one nonzero magnitude);
  // Linear::infer routes nothing else to it (see module.cpp).
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(12);
  LsqQuantizer q(QuantSpec::ternary());
  Tensor w = random_tensor({70, 33}, rng);
  (void)q.forward(w);  // latch the step
  const PackedTernary& pt = q.frozen_packed_ternary(w);
  Tensor ternary({1, 70});
  for (int c = 0; c < 70; c += 3) ternary.at(0, c) = c % 2 ? 0.5f : -0.5f;
  Tensor y({1, 33});
  gemm::ternary_matmul(ternary.data(), 1, 70, pt, y.data(), 33);
  EXPECT_LE(max_abs_diff(y, matmul(ternary, q.infer(w))), 1e-5f);

  Tensor mixed({1, 70});
  mixed.at(0, 5) = 0.5f;
  mixed.at(0, 40) = -0.25f;
  EXPECT_THROW(gemm::ternary_matmul(mixed.data(), 1, 70, pt, y.data(), 33),
               std::invalid_argument);
}

TEST(PackedTernary, LinearServesDenseWhenActivationsNotTernary) {
  // Ternary weights + full-precision activations: the dense blocked path
  // serves (no packed snapshot is built), and matches per-call dense
  // requantization bit-exactly.
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(18);
  Linear lin(48, 29, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({3, 48}, rng);
  (void)lin.forward(x);
  const Tensor served = lin.infer(x);
  EXPECT_FALSE(lin.weight_quant().packed_frozen());
  EXPECT_TRUE(lin.weight_quant().frozen());  // dense snapshot instead
  const Tensor dense = dense_linear_control(lin, x);
  expect_bitwise_equal(served, dense, "dense serving for non-ternary activations");
}

TEST(PackedTernary, DeterministicRunToRun) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(13);
  Linear lin(128, 128, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({3, 128}, rng);
  (void)lin.forward(x);
  expect_bitwise_equal(lin.infer(x), lin.infer(x), "packed run-to-run");
}

TEST(PackedTernary, PlanesMatchDenseQuantization) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(14);
  LsqQuantizer q(QuantSpec::ternary());
  Tensor w = random_tensor({37, 21}, rng);
  (void)q.forward(w);  // latch the step
  const Tensor wq = q.infer(w);
  const PackedTernary& pt = q.frozen_packed_ternary(w);
  ASSERT_EQ(pt.rows, 37);
  ASSERT_EQ(pt.cols, 21);
  ASSERT_EQ(pt.plus.size(), 21u);
  for (int i = 0; i < pt.rows; ++i)
    for (int j = 0; j < pt.cols; ++j) {
      const float v = wq.at(i, j);
      EXPECT_EQ(pt.plus[static_cast<std::size_t>(j)].get(static_cast<std::size_t>(i)), v > 0.0f);
      EXPECT_EQ(pt.minus[static_cast<std::size_t>(j)].get(static_cast<std::size_t>(i)), v < 0.0f);
      if (v > 0.0f) {
        EXPECT_FLOAT_EQ(v, pt.step);
      }
    }
}

TEST(PackedTernary, ThawRules) {
  BackendGuard guard;
  gemm::set_backend(gemm::Backend::kBlocked);
  Rng rng(15);
  Linear lin(16, 12, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({2, 16}, rng);
  (void)lin.forward(x);
  (void)lin.infer(x);  // freeze packed snapshot
  ASSERT_TRUE(lin.weight_quant().packed_frozen());

  // Training forward thaws.
  (void)lin.forward(x);
  EXPECT_FALSE(lin.weight_quant().packed_frozen());

  // reset_spec (the apply_precision path) thaws.
  (void)lin.infer(x);
  ASSERT_TRUE(lin.weight_quant().packed_frozen());
  lin.set_weight_quant(QuantSpec::ternary());
  EXPECT_FALSE(lin.weight_quant().packed_frozen());

  // Manual thaw + weight edit: the rebuilt snapshot must see the new weights.
  (void)lin.forward(x);  // re-latch the step under the new spec
  const Tensor before = lin.infer(x);
  for (std::size_t i = 0; i < lin.weight().value.size(); ++i)
    lin.weight().value[i] = -lin.weight().value[i];
  lin.thaw();
  const Tensor after = lin.infer(x);
  bool any_diff = false;
  for (std::size_t i = 0; i < after.size(); ++i) any_diff = any_diff || after[i] != before[i];
  EXPECT_TRUE(any_diff) << "thaw must rebuild the packed planes from the edited weights";
}

TEST(PackedTernary, ReferenceBackendServesDenseBitExactly) {
  // ASCEND_GEMM=reference disables the packed path: Linear::infer must be
  // bit-exact with the seed's dense frozen serving behaviour.
  BackendGuard guard;
  Rng rng(16);
  Linear lin(24, 18, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({3, 24}, rng);
  (void)lin.forward(x);
  gemm::set_backend(gemm::Backend::kReference);
  const Tensor served = lin.infer(x);
  EXPECT_FALSE(lin.weight_quant().packed_frozen());
  const Tensor dense = dense_linear_control(lin, x);
  expect_bitwise_equal(served, dense, "reference backend dense serving");
}

TEST(PackedTernary, ThrowsOnNonTernarySpec) {
  Rng rng(17);
  LsqQuantizer q16(QuantSpec::from_bsl(16));
  const Tensor w = random_tensor({4, 4}, rng);
  EXPECT_THROW((void)q16.frozen_packed_ternary(w), std::logic_error);
  LsqQuantizer off;
  EXPECT_THROW((void)off.frozen_packed_ternary(w), std::logic_error);
  LsqQuantizer tern(QuantSpec::ternary());
  EXPECT_THROW((void)tern.frozen_packed_ternary(Tensor({4, 0})), std::invalid_argument);
  EXPECT_THROW((void)tern.frozen_packed_ternary(Tensor({4})), std::invalid_argument);
}
