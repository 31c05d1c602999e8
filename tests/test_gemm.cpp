// Blocked/tiled GEMM kernel subsystem (nn/gemm.h): the matmul wrappers and
// the strided pointer kernels vs the seed's naive loops across awkward
// shapes and every micro-kernel tier, the W2A2 ternary-code Linear::infer
// path (bitwise against integer code counts), and run-to-run /
// across-thread-count determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/gemm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/rng.h"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace ascend;
using namespace ascend::nn;

namespace {

/// Restores the process-wide micro-kernel tier on scope exit.
struct KernelGuard {
  gemm::Kernel saved = gemm::kernel();  // resolved tier, never kAuto
  ~KernelGuard() { gemm::set_kernel(saved); }
};

/// OpenMP team width for the next parallel region; a no-op without OpenMP,
/// where every GEMM is serial.
void set_omp_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Restores the OpenMP default team width on scope exit.
struct OmpThreadsGuard {
#ifdef _OPENMP
  int saved = omp_get_max_threads();
  ~OmpThreadsGuard() { omp_set_num_threads(saved); }
#endif
};

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_normal(t, 0.0f, 1.0f);
  return t;
}

/// Largest |a - b|, or NaN when any difference is NaN (std::max would drop it).
float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a[i] - b[i]);
    if (std::isnan(d)) return d;
    worst = std::max(worst, d);
  }
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

// The seed's naive matmuls, reimplemented verbatim: the oracle the blocked
// kernels are held to. matmul and matmul_tn accumulate in axpy order and
// skip zero A elements; matmul_nt takes one dot product per output.
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

/// C[M,N] = A^T * B with A stored [K,M].
Tensor seed_matmul_tn(const Tensor& a_kxm, const Tensor& b_kxn) {
  const int k = a_kxm.dim(0), m = a_kxm.dim(1), n = b_kxn.dim(1);
  Tensor c({m, n});
  const float* pa = a_kxm.data();
  const float* pb = b_kxn.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    float* crow = pc + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = pa[static_cast<std::size_t>(kk) * m + i];
      if (av == 0.0f) continue;
      const float* brow = pb + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

/// C[M,K] = A * B^T with A stored [M,N] and B stored [K,N].
Tensor seed_matmul_nt(const Tensor& a_mxn, const Tensor& b_kxn) {
  const int m = a_mxn.dim(0), n = a_mxn.dim(1), k = b_kxn.dim(0);
  Tensor c({m, k});
  const float* pa = a_mxn.data();
  const float* pb = b_kxn.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    const float* arow = pa + static_cast<std::size_t>(i) * n;
    float* crow = pc + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = pb + static_cast<std::size_t>(kk) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += arow[j] * brow[j];
      crow[kk] = acc;
    }
  }
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Blocked kernels vs the seed loops
// ---------------------------------------------------------------------------

TEST(GemmBlocked, MatmulMatchesReferenceAcrossAwkwardShapes) {
  Rng rng(3);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor ref = seed_matmul(a, b);
    const Tensor got = matmul(a, b);
    // Long contractions (k > KC = 256 splits the k-block fold, and FMA
    // contraction differs between kernels) accumulate a little more rounding.
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

TEST(GemmBlocked, MatmulTnMatchesReferenceAcrossAwkwardShapes) {
  Rng rng(4);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({k, m}, rng);  // stored transposed
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor ref = seed_matmul_tn(a, b);
    const Tensor got = matmul_tn(a, b);
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

TEST(GemmBlocked, MatmulNtMatchesReferenceAcrossAwkwardShapes) {
  Rng rng(5);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({n, k}, rng);  // B stored [n, k]
    const Tensor ref = seed_matmul_nt(a, b);
    const Tensor got = matmul_nt(a, b);
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

// ---------------------------------------------------------------------------
// Strided pointer kernels vs the seed loops
// ---------------------------------------------------------------------------

namespace {

/// Copies t into a row-major buffer with row stride ld >= t.dim(1); the
/// padding columns hold `pad`.
std::vector<float> strided_copy(const Tensor& t, int ld, float pad) {
  const int rows = t.dim(0), cols = t.dim(1);
  std::vector<float> buf(static_cast<std::size_t>(rows) * ld, pad);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) buf[static_cast<std::size_t>(r) * ld + c] = t.at(r, c);
  return buf;
}

using GemmFn = void (*)(int, int, int, const float*, int, const float*, int, float*, int);

struct StridedKernel {
  const char* name;
  GemmFn fn;
  bool a_trans, b_trans;  ///< A stored [k,m]; B stored [n,k]
  Tensor (*seed)(const Tensor&, const Tensor&);
};

}  // namespace

TEST(GemmStrided, PointerKernelsAccumulateWithWideStridesOnEveryTier) {
  // Attention calls the pointer kernels on panels of wider matrices (Q/K/V
  // read out of the fused qkv rows, per-head tiles written into the merged
  // output), so every leading dimension here exceeds its logical width. A
  // and B padding holds NaN, which poisons any output that reads it; C
  // starts nonzero (the kernels accumulate) and its padding must keep its
  // bits.
  const StridedKernel kernels[] = {
      {"nn", gemm::gemm_nn, false, false, seed_matmul},
      {"tn", gemm::gemm_tn, true, false, seed_matmul_tn},
      {"nt", gemm::gemm_nt, false, true, seed_matmul_nt},
  };
  // {m, n, k}: m below every tier's MR, between the tiers' MRs, above all of
  // them, and tall enough for several row blocks; k = 300 crosses KC = 256.
  const std::array<int, 3> shapes[] = {
      {3, 20, 37}, {5, 33, 300}, {7, 9, 16}, {37, 45, 300}, {200, 24, 40},
  };
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kCPad = 7777.0f;
  KernelGuard guard;
  Rng rng(6);
  for (const gemm::Kernel tier :
       {gemm::Kernel::kBase, gemm::Kernel::kAvx2, gemm::Kernel::kAvx512}) {
    if (!gemm::kernel_supported(tier)) continue;
    gemm::set_kernel(tier);
    for (const StridedKernel& kern : kernels)
      for (const auto& [m, n, k] : shapes) {
        SCOPED_TRACE(testing::Message() << gemm::kernel_name() << " " << kern.name << " m=" << m
                                        << " n=" << n << " k=" << k);
        const Tensor a = kern.a_trans ? random_tensor({k, m}, rng) : random_tensor({m, k}, rng);
        const Tensor b = kern.b_trans ? random_tensor({n, k}, rng) : random_tensor({k, n}, rng);
        const Tensor c0 = random_tensor({m, n}, rng);
        const int lda = a.dim(1) + 3, ldb = b.dim(1) + 5, ldc = n + 7;
        const std::vector<float> sa = strided_copy(a, lda, kNaN);
        const std::vector<float> sb = strided_copy(b, ldb, kNaN);
        std::vector<float> sc = strided_copy(c0, ldc, kCPad);
        kern.fn(m, n, k, sa.data(), lda, sb.data(), ldb, sc.data(), ldc);

        const Tensor product = kern.seed(a, b);
        const float tol = k <= 128 ? 1e-5f : 1e-4f;
        int wrong = 0, pad_touched = 0;
        for (int i = 0; i < m; ++i) {
          const float* crow = sc.data() + static_cast<std::size_t>(i) * ldc;
          for (int j = 0; j < n; ++j)
            if (!(std::fabs(crow[j] - (c0.at(i, j) + product.at(i, j))) <= tol)) ++wrong;
          for (int j = n; j < ldc; ++j)
            if (std::memcmp(&crow[j], &kCPad, sizeof(float)) != 0) ++pad_touched;
        }
        EXPECT_EQ(wrong, 0);
        EXPECT_EQ(pad_touched, 0);
      }
  }
}

// ---------------------------------------------------------------------------
// Prepacked B panels (gemm_nn_packed) and the small-shape path
// ---------------------------------------------------------------------------

namespace {

struct TierShape {
  gemm::Kernel tier;
  int mr, nr;  ///< the tier's micro-tile
};

constexpr TierShape kTiers[] = {
    {gemm::Kernel::kBase, 4, 8}, {gemm::Kernel::kAvx2, 6, 16}, {gemm::Kernel::kAvx512, 8, 32}};
constexpr int kKc = 256;      // gemm.cpp's contraction block
constexpr int kNcStrips = 15;  // NC = 15 * NR

/// A[m,k] and B[k,n] stored with wide strides and NaN padding, and C[m,n]
/// stored with a wide stride and a constant pad, as the strided test above.
struct StridedOperands {
  int m, n, k, lda, ldb, ldc;
  std::vector<float> a, b, c;
};

StridedOperands strided_operands(int m, int n, int k, bool b_trans, Rng& rng) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = b_trans ? random_tensor({n, k}, rng) : random_tensor({k, n}, rng);
  const Tensor c0 = random_tensor({m, n}, rng);
  StridedOperands op{m, n, k, k + 3, b.dim(1) + 5, n + 7, {}, {}, {}};
  op.a = strided_copy(a, op.lda, kNaN);
  op.b = strided_copy(b, op.ldb, kNaN);
  op.c = strided_copy(c0, op.ldc, 7777.0f);
  return op;
}

/// Bitwise equality of two C buffers, padding included.
void expect_same_buffer(const std::vector<float>& got, const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0);
}

}  // namespace

TEST(GemmPacked, BitwiseEqualsGemmNnOnEveryTier) {
  KernelGuard guard;
  Rng rng(40);
  for (const TierShape& ts : kTiers) {
    if (!gemm::kernel_supported(ts.tier)) continue;
    gemm::set_kernel(ts.tier);
    const int nc = kNcStrips * ts.nr;
    // {m, n, k}: m < MR, m = MR, n not a multiple of NR, k > KC (two K
    // blocks), n > NC (two N blocks), and a tall case with several row blocks.
    const std::array<int, 3> shapes[] = {{ts.mr - 1, 45, 37},      {ts.mr, 45, 37},
                                         {ts.mr + 5, ts.nr + 3, 40}, {17, 33, kKc + 44},
                                         {9, nc + 5, 24},            {230, 70, 64}};
    for (const auto& [m, n, k] : shapes) {
      SCOPED_TRACE(testing::Message() << gemm::kernel_name() << " m=" << m << " n=" << n
                                      << " k=" << k);
      StridedOperands op = strided_operands(m, n, k, /*b_trans=*/false, rng);
      const gemm::PackedB bp = gemm::pack_b(k, n, op.b.data(), op.ldb);
      EXPECT_EQ(bp.tier, ts.tier);
      std::vector<float> want = op.c;
      gemm::gemm_nn(m, n, k, op.a.data(), op.lda, op.b.data(), op.ldb, want.data(), op.ldc);
      gemm::gemm_nn_packed(m, op.a.data(), op.lda, bp, op.b.data(), op.ldb, op.c.data(), op.ldc);
      expect_same_buffer(op.c, want);
    }
  }
}

TEST(GemmPacked, PanelsOfAnotherTierFallBackToTheActiveTier) {
  // Panels packed under one tier and multiplied under another must give
  // the multiplying tier's gemm_nn bits.
  KernelGuard guard;
  Rng rng(41);
  const int m = 24, n = 50, k = 70;
  for (const TierShape& pack_tier : kTiers)
    for (const TierShape& run_tier : kTiers) {
      if (!gemm::kernel_supported(pack_tier.tier) || !gemm::kernel_supported(run_tier.tier))
        continue;
      gemm::set_kernel(pack_tier.tier);
      StridedOperands op = strided_operands(m, n, k, /*b_trans=*/false, rng);
      const gemm::PackedB bp = gemm::pack_b(k, n, op.b.data(), op.ldb);
      gemm::set_kernel(run_tier.tier);
      SCOPED_TRACE(testing::Message() << "packed " << static_cast<int>(pack_tier.tier)
                                      << ", run " << gemm::kernel_name());
      std::vector<float> want = op.c;
      gemm::gemm_nn(m, n, k, op.a.data(), op.lda, op.b.data(), op.ldb, want.data(), op.ldc);
      gemm::gemm_nn_packed(m, op.a.data(), op.lda, bp, op.b.data(), op.ldb, op.c.data(), op.ldc);
      expect_same_buffer(op.c, want);
    }
}

TEST(GemmSmall, RowsEqualATallerPackedCallOnEveryTier) {
  // The no-pack small-shape path must keep each tier's per-element
  // arithmetic: its rows equal the same rows of a taller call that takes the
  // packed path (gemm_nn_packed, and gemm_nt for the transposed kernel),
  // across the KC boundary. Below MR both sides run the seed loop.
  KernelGuard guard;
  Rng rng(42);
  constexpr int kTall = 40;
  for (const TierShape& ts : kTiers) {
    if (!gemm::kernel_supported(ts.tier)) continue;
    gemm::set_kernel(ts.tier);
    for (const int k : {kKc, kKc + 1})
      for (const int m : {ts.mr - 1, ts.mr, 13, 16})
        for (const int n : {16, 21})
          for (const bool b_trans : {false, true}) {
            SCOPED_TRACE(testing::Message() << gemm::kernel_name() << (b_trans ? " nt" : " nn")
                                            << " m=" << m << " n=" << n << " k=" << k);
            StridedOperands tall = strided_operands(kTall, n, k, b_trans, rng);
            // The small call reads the first m rows of the tall operands.
            std::vector<float> small_c = tall.c;
            if (b_trans)
              gemm::gemm_nt_small(m, n, k, tall.a.data(), tall.lda, tall.b.data(), tall.ldb,
                                  small_c.data(), tall.ldc);
            else
              gemm::gemm_nn_small(m, n, k, tall.a.data(), tall.lda, tall.b.data(), tall.ldb,
                                  small_c.data(), tall.ldc);
            // Reference: the taller packed call, or gemm_* itself below MR.
            const int ref_m = m < ts.mr ? m : kTall;
            std::vector<float> ref_c = tall.c;
            if (b_trans) {
              gemm::gemm_nt(ref_m, n, k, tall.a.data(), tall.lda, tall.b.data(), tall.ldb,
                            ref_c.data(), tall.ldc);
            } else {
              const gemm::PackedB bp = gemm::pack_b(k, n, tall.b.data(), tall.ldb);
              gemm::gemm_nn_packed(ref_m, tall.a.data(), tall.lda, bp, tall.b.data(), tall.ldb,
                                   ref_c.data(), tall.ldc);
            }
            const std::size_t live = static_cast<std::size_t>(m) * tall.ldc;
            EXPECT_EQ(std::memcmp(small_c.data(), ref_c.data(), live * sizeof(float)), 0);
            // Rows past m are untouched.
            EXPECT_EQ(std::memcmp(small_c.data() + live, tall.c.data() + live,
                                  (small_c.size() - live) * sizeof(float)),
                      0);
          }
  }
}

// ---------------------------------------------------------------------------
// Micro-kernel tiers (base / avx2 / avx512)
// ---------------------------------------------------------------------------

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
  gemm::set_kernel(gemm::Kernel::kAvx512);
  Rng rng(20);
  for (const auto& [m, k, n] : kAwkwardShapes) {
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor ref = seed_matmul(a, b);
    const Tensor got = matmul(a, b);
    EXPECT_LE(max_abs_diff(ref, got), k <= 128 ? 1e-5f : 1e-4f) << m << "x" << k << "x" << n;
  }
}

// ---------------------------------------------------------------------------
// Determinism: run-to-run and across thread counts
// ---------------------------------------------------------------------------

TEST(GemmDeterminism, BlockedBitIdenticalRunToRun) {
  Rng rng(8);
  const Tensor a = random_tensor({65, 67}, rng);
  const Tensor b = random_tensor({67, 63}, rng);
  expect_bitwise_equal(matmul(a, b), matmul(a, b), "run-to-run");
  const Tensor at = random_tensor({67, 65}, rng);
  expect_bitwise_equal(matmul_tn(at, b), matmul_tn(at, b), "tn run-to-run");
  const Tensor bt = random_tensor({63, 67}, rng);
  expect_bitwise_equal(matmul_nt(a, bt), matmul_nt(a, bt), "nt run-to-run");
}

TEST(GemmDeterminism, BitIdenticalAcrossOpenMpTeamWidths) {
  // matmul sizes its own OpenMP team from m*n*k; row bands never change an
  // element's operation order, so every team width reproduces the serial
  // product bit-for-bit.
  Rng rng(9);
  // Tall enough for several row bands on every tier (MC <= 192 rows).
  const int m = 400, k = 96, n = 70;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  const Tensor at = random_tensor({k, m}, rng);
  const Tensor bt = random_tensor({n, k}, rng);

  OmpThreadsGuard threads_guard;
  set_omp_threads(1);
  const Tensor serial = matmul(a, b);
  const Tensor serial_tn = matmul_tn(at, b);
  const Tensor serial_nt = matmul_nt(a, bt);
  for (int threads : {2, 3, 4}) {
    set_omp_threads(threads);
    expect_bitwise_equal(matmul(a, b), serial, "nn team vs serial");
    expect_bitwise_equal(matmul_tn(at, b), serial_tn, "tn team vs serial");
    expect_bitwise_equal(matmul_nt(a, bt), serial_nt, "nt team vs serial");
  }
}

TEST(GemmDeterminism, SerialInsideAnEnclosingParallelRegion) {
  // A GEMM issued from inside a parallel region (the per-head attention
  // loops) runs serially on its caller's thread; every caller must
  // reproduce the serial product.
  Rng rng(10);
  const int m = 300, k = 64, n = 48;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  OmpThreadsGuard threads_guard;
  set_omp_threads(1);
  const Tensor serial = matmul(a, b);

  set_omp_threads(4);  // what a top-level GEMM of this size would use
  std::vector<Tensor> results(4);
#ifdef _OPENMP
#pragma omp parallel num_threads(4)
  results[static_cast<std::size_t>(omp_get_thread_num())] = matmul(a, b);
#else
  for (auto& out : results) out = matmul(a, b);
#endif
  for (const auto& out : results) expect_bitwise_equal(out, serial, "caller in parallel region");
}

// ---------------------------------------------------------------------------
// W2A2 Linear::infer, bitwise against integer code counts
// ---------------------------------------------------------------------------

namespace {

struct W2a2Case {
  int m, k, n;
  float w_step, x_step;  ///< calibrated LSQ steps (clamped to 1e-6 when serving)
  float x_scale;         ///< stddev of the random activations
  float bias_scale;      ///< stddev of the bias, kept near the outputs' size
};

/// Recomputes every output of a calibrated W2A2 Linear::infer from integer
/// code counts: y = fl(fl(w_step * x_step) * count) + bias, with the weight
/// code clamp(round(w / w_step), -1, +1) and the activation code +1 iff
/// x >= x_step/2, -1 iff x <= -x_step/2. Row 0 is all zeros; row 1 sits
/// exactly on the thresholds and one float inside them.
void expect_w2a2_infer_matches_counts(const W2a2Case& tc, std::uint64_t seed) {
  Rng rng(seed);
  Linear lin(tc.k, tc.n, rng);
  lin.weight_quant().restore_calibration(QuantSpec::ternary(), true, tc.w_step);
  lin.input_quant().restore_calibration(QuantSpec::ternary(), true, tc.x_step);
  rng.fill_normal(lin.bias().value, 0.0f, tc.bias_scale);
  const float sw = std::max(tc.w_step, 1e-6f), sx = std::max(tc.x_step, 1e-6f);
  const float half = 0.5f * sx;

  Tensor x = random_tensor({tc.m, tc.k}, rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= tc.x_scale;
  for (int c = 0; c < tc.k; ++c) x.at(0, c) = 0.0f;
  const float edges[4] = {half, -half, std::nextafter(half, 0.0f), std::nextafter(-half, 0.0f)};
  for (int c = 0; c < tc.k; ++c) x.at(1, c) = edges[c % 4];

  const Tensor y = lin.infer(x);
  ASSERT_EQ(y.shape(), Shape({tc.m, tc.n}));
  const float scale = sw * sx;
  for (int r = 0; r < tc.m; ++r)
    for (int c = 0; c < tc.n; ++c) {
      int count = 0;
      for (int i = 0; i < tc.k; ++i) {
        const float v = x.at(r, i);
        const int xc = v >= half ? 1 : (v <= -half ? -1 : 0);
        const int wc =
            static_cast<int>(std::clamp(std::round(lin.weight().value.at(i, c) / sw), -1.0f, 1.0f));
        count += xc * wc;
      }
      float expect = scale * static_cast<float>(count);
      expect += lin.bias().value[static_cast<std::size_t>(c)];
      const float got = y.at(r, c);
      ASSERT_EQ(std::memcmp(&got, &expect, sizeof(float)), 0)
          << "row " << r << " col " << c << ": got " << got << ", want " << expect;
    }
}

}  // namespace

TEST(W2a2LinearInfer, BitwiseEqualsIntegerCodeCounts) {
  const std::vector<W2a2Case> cases = {
      // Weight steps near the init stddev sqrt(2/k), so most weight codes
      // are nonzero and the counts span many integers.
      {6, 100, 70, 0.14f, 0.6f, 1.0f, 1.0f},       // k > 64, not a multiple of 64
      {3, 64, 33, 0.2f, 0.45f, 1.0f, 1.0f},        // k exactly one word
      {37, 300, 129, 0.09f, 0.9f, 1.5f, 1.0f},     // k across the GEMM's contraction block
      {4, 70, 17, 1e-9f, 1e-9f, 1e-6f, 1e-11f},    // both steps clamped to 1e-6
      {2, 130, 5, 0.12f, 0.0f, 1e-6f, 1e-7f},      // activation step 0, clamped
  };
  std::uint64_t seed = 100;
  for (const W2a2Case& tc : cases) {
    SCOPED_TRACE(testing::Message() << "m=" << tc.m << " k=" << tc.k << " n=" << tc.n);
    expect_w2a2_infer_matches_counts(tc, seed++);
  }
}

// ---------------------------------------------------------------------------
// Ternary-code weight snapshot
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

TEST(TernaryCodes, LinearInferMatchesDenseFrozenTernaryActivations) {
  Rng rng(11);
  Linear lin(96, 80, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  Tensor x = random_tensor({5, 96}, rng);
  for (int c = 0; c < 96; ++c) x.at(2, c) = 0.0f;  // an all-zero row
  (void)lin.forward(x);  // latch the LSQ steps
  const Tensor codes = lin.infer(x);
  EXPECT_TRUE(lin.weight_quant().frozen(/*codes=*/true));  // the slot holds codes
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/false));
  const Tensor dense = dense_linear_control(lin, x);
  EXPECT_LE(max_abs_diff(codes, dense), 1e-5f);
}

TEST(TernaryCodes, LinearServesDenseWhenActivationsNotTernary) {
  // Ternary weights + full-precision activations: the dense blocked path
  // serves (the slot holds the dense matrix), and matches per-call dense
  // requantization bit-exactly.
  Rng rng(18);
  Linear lin(48, 29, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({3, 48}, rng);
  (void)lin.forward(x);
  const Tensor served = lin.infer(x);
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/true));
  EXPECT_TRUE(lin.weight_quant().frozen(/*codes=*/false));  // the dense matrix instead
  const Tensor dense = dense_linear_control(lin, x);
  expect_bitwise_equal(served, dense, "dense serving for non-ternary activations");
}

TEST(TernaryCodes, UncalibratedInputServesDenseFakeQuant) {
  // An input quantizer that never latched a step has no fixed activation
  // step to scale codes by: the dense fake-quantized path serves instead.
  Rng rng(21);
  Linear lin(40, 24, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({3, 40}, rng);
  ASSERT_FALSE(lin.input_quant().calibrated());
  const Tensor served = lin.infer(x);
  EXPECT_FALSE(lin.weight_quant().frozen(/*codes=*/true));
  EXPECT_TRUE(lin.weight_quant().frozen(/*codes=*/false));
  expect_bitwise_equal(served, dense_linear_control(lin, x), "uncalibrated input serving");
}

TEST(TernaryCodes, InputCalibrationSwitchesTheFrozenMatrix) {
  // Restoring the input quantizer's calibration on a served Linear moves it
  // between the dense and the code regime: the one weight slot rebuilds the
  // other matrix, and each regime serves its own bits.
  Rng rng(19);
  Linear lin(40, 24, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  // 10 rows (>= every tier's MR): both regimes multiply through the panels.
  const Tensor x = random_tensor({10, 40}, rng);
  (void)lin.forward(x);  // latch both steps
  const float input_step = lin.input_quant().step();
  const Linear& served = lin;
  const LsqQuantizer& wq = lin.weight_quant();
  const Tensor codes = served.infer(x);
  ASSERT_TRUE(wq.frozen(/*codes=*/true));

  lin.input_quant().restore_calibration(QuantSpec::ternary(), /*calibrated=*/false, 0.0f);
  const Tensor dense = served.infer(x);
  EXPECT_TRUE(wq.frozen(/*codes=*/false));
  EXPECT_FALSE(wq.frozen(/*codes=*/true));
  expect_bitwise_equal(dense, dense_linear_control(lin, x), "dense after de-calibrating the input");

  lin.input_quant().restore_calibration(QuantSpec::ternary(), /*calibrated=*/true, input_step);
  expect_bitwise_equal(served.infer(x), codes, "codes after re-calibrating the input");
  EXPECT_TRUE(wq.frozen(/*codes=*/true));
  EXPECT_FALSE(wq.frozen(/*codes=*/false));
}

TEST(TernaryCodes, DeterministicRunToRun) {
  Rng rng(13);
  Linear lin(128, 128, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  const Tensor x = random_tensor({3, 128}, rng);
  (void)lin.forward(x);
  expect_bitwise_equal(lin.infer(x), lin.infer(x), "codes run-to-run");
}

TEST(TernaryCodes, LevelsMatchDenseQuantization) {
  Rng rng(14);
  LsqQuantizer q(QuantSpec::ternary());
  Tensor w = random_tensor({37, 21}, rng);
  (void)q.forward(w);  // latch the step
  const Tensor wq = q.infer(w);
  const FrozenWeight& tc = q.frozen_weight(w, /*codes=*/true);
  ASSERT_EQ(tc.matrix.shape(), w.shape());
  EXPECT_EQ(tc.step, std::max(q.step(), 1e-6f));
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float level = tc.matrix[i];
    ASSERT_TRUE(level == -1.0f || level == 0.0f || level == 1.0f) << "element " << i;
    EXPECT_EQ(level * tc.step, wq[i]) << "element " << i;
  }
}

TEST(TernaryCodes, ThawRules) {
  Rng rng(15);
  Linear lin(16, 12, rng);
  lin.set_weight_quant(QuantSpec::ternary());
  lin.set_input_quant(QuantSpec::ternary());
  // 10 rows (>= every tier's MR): infer multiplies through the code panels.
  const Tensor x = random_tensor({10, 16}, rng);
  const LsqQuantizer& wq = lin.weight_quant();
  const auto frozen = [&] { return wq.frozen(/*codes=*/true); };
  const auto thawed = [&] { return !wq.frozen(/*codes=*/true) && !wq.frozen(/*codes=*/false); };
  (void)lin.forward(x);
  (void)lin.infer(x);  // freeze the codes and their panels
  ASSERT_TRUE(frozen());

  // Training forward thaws.
  (void)lin.forward(x);
  EXPECT_TRUE(thawed());

  // reset_spec (the apply_precision path) thaws.
  (void)lin.infer(x);
  ASSERT_TRUE(frozen());
  lin.set_weight_quant(QuantSpec::ternary());
  EXPECT_TRUE(thawed());

  // restore_calibration (the checkpoint load path) thaws.
  (void)lin.forward(x);  // re-latch the step under the new spec
  (void)lin.infer(x);
  ASSERT_TRUE(frozen());
  lin.weight_quant().restore_calibration(QuantSpec::ternary(), true, lin.weight_quant().step());
  EXPECT_TRUE(thawed());

  // A tier change rebuilds the slot for the new tier, same bits.
  const Tensor served = lin.infer(x);
  {
    KernelGuard guard;
    for (const gemm::Kernel tier :
         {gemm::Kernel::kBase, gemm::Kernel::kAvx2, gemm::Kernel::kAvx512}) {
      if (!gemm::kernel_supported(tier)) continue;
      const gemm::Kernel before = gemm::kernel();
      gemm::set_kernel(tier);
      EXPECT_EQ(frozen(), tier == before) << gemm::kernel_name();
      expect_bitwise_equal(lin.infer(x), served, gemm::kernel_name());
      EXPECT_TRUE(frozen()) << gemm::kernel_name();
      // The codes are packed as int8 on the wide tiers and as float panels
      // on base.
      const FrozenWeight& fw = wq.frozen_weight(lin.weight().value, /*codes=*/true);
      EXPECT_EQ(tier == gemm::Kernel::kBase ? fw.panels.tier : fw.codes.tier, tier);
    }
  }

  // Manual thaw + weight edit: the rebuilt snapshot must see the new weights.
  const Tensor before = lin.infer(x);
  for (std::size_t i = 0; i < lin.weight().value.size(); ++i)
    lin.weight().value[i] = -lin.weight().value[i];
  lin.thaw();
  EXPECT_TRUE(thawed());
  const Tensor after = lin.infer(x);
  bool any_diff = false;
  for (std::size_t i = 0; i < after.size(); ++i) any_diff = any_diff || after[i] != before[i];
  EXPECT_TRUE(any_diff) << "thaw must rebuild the codes from the edited weights";
}

TEST(TernaryCodes, Int8KernelsMatchTheFloatGemmOnEveryTier) {
  // 0/±1 matrices, -0 among B's zeros, strided A; m around the row tiles,
  // k around groups of 4, n around the 8/16/32-column tiles.
  KernelGuard guard;
  std::mt19937 gen(27);
  std::uniform_int_distribution<int> code(-1, 1);
  for (const gemm::Kernel tier : {gemm::Kernel::kBase, gemm::Kernel::kAvx2, gemm::Kernel::kAvx512}) {
    if (!gemm::kernel_supported(tier)) continue;
    gemm::set_kernel(tier);
    for (const int m : {1, 3, 4, 5, 8, 9, 16, 17})
      for (const int k : {1, 3, 4, 5, 64, 129})
        for (const int n : {1, 7, 8, 15, 16, 17, 33, 192}) {
          const int lda = k + 3;
          std::vector<float> a(static_cast<std::size_t>(m) * lda, 7.0f), b(static_cast<std::size_t>(k) * n);
          for (int i = 0; i < m; ++i)
            for (int p = 0; p < k; ++p) a[static_cast<std::size_t>(i) * lda + p] = static_cast<float>(code(gen));
          for (float& v : b) {
            const int c = code(gen);
            v = c == 0 && gen() % 2 ? -0.0f : static_cast<float>(c);
          }
          std::vector<float> want(static_cast<std::size_t>(m) * n, 0.0f);
          gemm::gemm_nn(m, n, k, a.data(), lda, b.data(), n, want.data(), n);
          const gemm::PackedCodes bp = gemm::pack_codes(k, n, b.data(), n);
          std::vector<float> got(static_cast<std::size_t>(m) * n, 123.0f);
          const bool served = gemm::gemm_codes(m, a.data(), lda, bp, got.data(), n);
          ASSERT_EQ(served, tier != gemm::Kernel::kBase) << gemm::kernel_name();
          if (!served) continue;
          ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
              << gemm::kernel_name() << " m=" << m << " k=" << k << " n=" << n;
        }
  }
  // Codes packed under another tier are not served, and nothing but 0/±1
  // packs (a NaN level stays on the float GEMM, which propagates it).
  gemm::set_kernel(gemm::Kernel::kBase);
  const std::vector<float> one(4, 1.0f);
  const gemm::PackedCodes base_packed = gemm::pack_codes(2, 2, one.data(), 2);
  EXPECT_EQ(base_packed.tier, gemm::Kernel::kAuto);
  for (const gemm::Kernel tier : {gemm::Kernel::kAvx2, gemm::Kernel::kAvx512}) {
    if (!gemm::kernel_supported(tier)) continue;
    gemm::set_kernel(tier);
    for (const float odd : {std::numeric_limits<float>::quiet_NaN(), 0.5f, 2.0f}) {
      const std::vector<float> b = {1.0f, odd, 0.0f, -1.0f};
      EXPECT_EQ(gemm::pack_codes(2, 2, b.data(), 2).tier, gemm::Kernel::kAuto) << odd;
    }
    const gemm::PackedCodes bp = gemm::pack_codes(2, 2, one.data(), 2);
    gemm::set_kernel(tier == gemm::Kernel::kAvx2 ? gemm::Kernel::kBase : gemm::Kernel::kAvx2);
    std::vector<float> c(4, 5.0f);
    EXPECT_FALSE(gemm::gemm_codes(2, one.data(), 2, bp, c.data(), 2));
    EXPECT_EQ(c, std::vector<float>(4, 5.0f));
  }
}

TEST(TernaryCodes, ThrowsOnNonTernarySpec) {
  Rng rng(17);
  LsqQuantizer q16(QuantSpec::from_bsl(16));
  const Tensor w = random_tensor({4, 4}, rng);
  EXPECT_THROW((void)q16.frozen_weight(w, /*codes=*/true), std::logic_error);
  LsqQuantizer off;
  EXPECT_THROW((void)off.frozen_weight(w, /*codes=*/true), std::logic_error);
  LsqQuantizer tern(QuantSpec::ternary());
  EXPECT_THROW((void)tern.frozen_weight(Tensor({4, 0}), /*codes=*/true), std::invalid_argument);
  EXPECT_THROW((void)tern.frozen_weight(Tensor({4}), /*codes=*/true), std::invalid_argument);
  EXPECT_THROW((void)off.frozen_weight(Tensor({4}), /*codes=*/false), std::invalid_argument);
}
