#include "nn/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ascend::nn::gemm {
namespace {

template <bool ATrans>
inline float a_elem(const float* a, int lda, int i, int p) {
  return ATrans ? a[static_cast<std::size_t>(p) * lda + i]
                : a[static_cast<std::size_t>(i) * lda + p];
}

template <bool BTrans>
inline float b_elem(const float* b, int ldb, int p, int j) {
  return BTrans ? b[static_cast<std::size_t>(j) * ldb + p]
                : b[static_cast<std::size_t>(p) * ldb + j];
}

// Seed-order naive loops (strided): gemm_blocked's skinny-m path. BTrans ==
// false reproduces the axpy-with-zero-skip order of the seed's
// matmul/matmul_tn; BTrans == true the dot order of matmul_nt.
template <bool ATrans, bool BTrans>
void gemm_naive(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
                int ldc) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if constexpr (!BTrans) {
      for (int p = 0; p < k; ++p) {
        const float av = a_elem<ATrans>(a, lda, i, p);
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(p) * ldb;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    } else {
      for (int j = 0; j < n; ++j) {
        const float* brow = b + static_cast<std::size_t>(j) * ldb;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc += a_elem<ATrans>(a, lda, i, p) * brow[p];
        crow[j] += acc;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Register-tiled micro-kernels.
//
// The micro-tile (MR rows x NR columns of C) is held in a local accumulator
// array the compiler keeps in vector registers across the whole kc
// contraction; each packed B-strip row is reused by all MR output rows. Two
// instantiations are compiled: a baseline for the build's default ISA
// (4 x 8 — eight xmm accumulators fit SSE2's register file) and an
// AVX2+FMA-targeted 6 x 16 (twelve ymm accumulators), selected once at
// startup by querying the CPU — the binary stays runnable on any x86-64.
// ---------------------------------------------------------------------------

/// kernel(kc, ap, bp, c, ldc, mr, nr): ap is the MR-interleaved packed A
/// panel (ap[p * MR + r]), bp the NR-interleaved packed B strip
/// (bp[p * NR + j]); only the live mr x nr corner folds into C.
using MicroKernelFn = void (*)(int, const float*, const float*, float*, int, int, int);

#if defined(__x86_64__) || defined(__i386__)
#define ASCEND_GEMM_X86 1
#endif

#ifdef ASCEND_GEMM_X86

// 4 x 8 SSE kernel (eight xmm accumulators; SSE2 is baseline on x86-64).
void micro_kernel_base(int kc, const float* ap, const float* bp, float* c, int ldc, int mr,
                       int nr) {
  constexpr int MRv = 4, NRv = 8;
  __m128 acc[MRv][2];
  for (auto& row : acc) row[0] = row[1] = _mm_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const float* brow = bp + static_cast<std::size_t>(p) * NRv;
    const float* arow = ap + static_cast<std::size_t>(p) * MRv;
    const __m128 b0 = _mm_loadu_ps(brow);
    const __m128 b1 = _mm_loadu_ps(brow + 4);
    for (int r = 0; r < MRv; ++r) {
      const __m128 ar = _mm_set1_ps(arow[r]);
      acc[r][0] = _mm_add_ps(acc[r][0], _mm_mul_ps(ar, b0));
      acc[r][1] = _mm_add_ps(acc[r][1], _mm_mul_ps(ar, b1));
    }
  }
  for (int r = 0; r < mr; ++r) {
    alignas(16) float tmp[NRv];
    _mm_store_ps(tmp, acc[r][0]);
    _mm_store_ps(tmp + 4, acc[r][1]);
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += tmp[j];
  }
}

// 6 x 16 AVX2+FMA kernel (twelve ymm accumulators), compiled for AVX2 via
// the target attribute and selected at startup only when the CPU supports
// it — the binary stays runnable on any x86-64.
//
// Determinism note shared by the FMA tiers (avx2 and avx512 below): every
// output element accumulates through exactly one register lane, fmadd per
// k step in ascending order. Widening the vector only adds more independent
// lanes — it never reassociates a chain — so the two tiers are bit-identical
// on the blocked path and test_gemm asserts that.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(int kc, const float* ap,
                                                           const float* bp, float* c, int ldc,
                                                           int mr, int nr) {
  constexpr int MRv = 6, NRv = 16;
  __m256 acc[MRv][2];
  for (auto& row : acc) row[0] = row[1] = _mm256_setzero_ps();
  // Two contraction steps per iteration: halves loop overhead and gives the
  // scheduler two independent load/broadcast streams. The accumulation order
  // per element is unchanged (both steps chain through the same accumulator).
  int p = 0;
  for (; p + 2 <= kc; p += 2) {
    const float* brow = bp + static_cast<std::size_t>(p) * NRv;
    const float* arow = ap + static_cast<std::size_t>(p) * MRv;
    _mm_prefetch(reinterpret_cast<const char*>(brow + 8 * NRv), _MM_HINT_T0);
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const __m256 b2 = _mm256_loadu_ps(brow + NRv);
    const __m256 b3 = _mm256_loadu_ps(brow + NRv + 8);
    for (int r = 0; r < MRv; ++r) {
      const __m256 ar0 = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(ar0, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar0, b1, acc[r][1]);
      const __m256 ar1 = _mm256_broadcast_ss(arow + MRv + r);
      acc[r][0] = _mm256_fmadd_ps(ar1, b2, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar1, b3, acc[r][1]);
    }
  }
  for (; p < kc; ++p) {
    const float* brow = bp + static_cast<std::size_t>(p) * NRv;
    const float* arow = ap + static_cast<std::size_t>(p) * MRv;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < MRv; ++r) {
      const __m256 ar = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(ar, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < mr; ++r) {
    alignas(32) float tmp[NRv];
    _mm256_store_ps(tmp, acc[r][0]);
    _mm256_store_ps(tmp + 8, acc[r][1]);
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += tmp[j];
  }
}

// 8 x 32 AVX-512F kernel (sixteen zmm accumulators out of the 32-register
// file). Same structure as the AVX2 kernel — two-step unrolled k loop, one
// fmadd chain per output element — so results are bit-identical to it.
__attribute__((target("avx512f"))) void micro_kernel_avx512(int kc, const float* ap,
                                                            const float* bp, float* c, int ldc,
                                                            int mr, int nr) {
  constexpr int MRv = 8, NRv = 32;
  __m512 acc[MRv][2];
  for (auto& row : acc) row[0] = row[1] = _mm512_setzero_ps();
  int p = 0;
  for (; p + 2 <= kc; p += 2) {
    const float* brow = bp + static_cast<std::size_t>(p) * NRv;
    const float* arow = ap + static_cast<std::size_t>(p) * MRv;
    _mm_prefetch(reinterpret_cast<const char*>(brow + 8 * NRv), _MM_HINT_T0);
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    const __m512 b2 = _mm512_loadu_ps(brow + NRv);
    const __m512 b3 = _mm512_loadu_ps(brow + NRv + 16);
    for (int r = 0; r < MRv; ++r) {
      const __m512 ar0 = _mm512_set1_ps(arow[r]);
      acc[r][0] = _mm512_fmadd_ps(ar0, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(ar0, b1, acc[r][1]);
      const __m512 ar1 = _mm512_set1_ps(arow[MRv + r]);
      acc[r][0] = _mm512_fmadd_ps(ar1, b2, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(ar1, b3, acc[r][1]);
    }
  }
  for (; p < kc; ++p) {
    const float* brow = bp + static_cast<std::size_t>(p) * NRv;
    const float* arow = ap + static_cast<std::size_t>(p) * MRv;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    for (int r = 0; r < MRv; ++r) {
      const __m512 ar = _mm512_set1_ps(arow[r]);
      acc[r][0] = _mm512_fmadd_ps(ar, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(ar, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < mr; ++r) {
    alignas(64) float tmp[NRv];
    _mm512_store_ps(tmp, acc[r][0]);
    _mm512_store_ps(tmp + 16, acc[r][1]);
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += tmp[j];
  }
}

// ---------------------------------------------------------------------------
// Small-shape kernels (gemm_nn_small / gemm_nt_small).
//
// kernel(m, n, kc, a, lda, b, ldb, c, ldc) folds one KC block of
// A[m,kc] * B[kc,n] into C, reading A and B in place. Every output lane
// starts its chain at zero, walks p ascending with its tier's micro-kernel
// arithmetic and folds into C once, which is what the blocked path does per
// KC block; only the packing is gone. Rows go eight, then four, then one at
// a time, so full blocks keep eight independent chains in flight.
// ---------------------------------------------------------------------------

template <int R>
void small_rows_base(int n, int kc, const float* a, int lda, const float* b, int ldb, float* c,
                     int ldc) {
  int j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    __m128 acc[R];
    for (auto& v : acc) v = _mm_setzero_ps();
    for (int p = 0; p < kc; ++p) {
      const __m128 bv = _mm_loadu_ps(b + static_cast<std::size_t>(p) * ldb + j0);
      for (int r = 0; r < R; ++r)
        acc[r] = _mm_add_ps(acc[r],
                            _mm_mul_ps(_mm_set1_ps(a[static_cast<std::size_t>(r) * lda + p]), bv));
    }
    for (int r = 0; r < R; ++r) {
      float* cr = c + static_cast<std::size_t>(r) * ldc + j0;
      _mm_storeu_ps(cr, _mm_add_ps(_mm_loadu_ps(cr), acc[r]));
    }
  }
  // SSE has no masked loads: the column tail runs the same chain one lane
  // at a time.
  for (; j0 < n; ++j0)
    for (int r = 0; r < R; ++r) {
      __m128 acc = _mm_setzero_ps();
      for (int p = 0; p < kc; ++p)
        acc = _mm_add_ss(acc, _mm_mul_ss(_mm_set_ss(a[static_cast<std::size_t>(r) * lda + p]),
                                         _mm_set_ss(b[static_cast<std::size_t>(p) * ldb + j0])));
      c[static_cast<std::size_t>(r) * ldc + j0] += _mm_cvtss_f32(acc);
    }
}

template <int R>
__attribute__((target("avx2,fma"))) void small_rows_avx2(int n, int kc, const float* a, int lda,
                                                         const float* b, int ldb, float* c,
                                                         int ldc) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int j0 = 0; j0 < n; j0 += 8) {
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(n - j0), lane);
    __m256 acc[R];
    for (auto& v : acc) v = _mm256_setzero_ps();
    for (int p = 0; p < kc; ++p) {
      const __m256 bv = _mm256_maskload_ps(b + static_cast<std::size_t>(p) * ldb + j0, mask);
      for (int r = 0; r < R; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + static_cast<std::size_t>(r) * lda + p),
                                 bv, acc[r]);
    }
    for (int r = 0; r < R; ++r) {
      float* cr = c + static_cast<std::size_t>(r) * ldc + j0;
      _mm256_maskstore_ps(cr, mask, _mm256_add_ps(_mm256_maskload_ps(cr, mask), acc[r]));
    }
  }
}

template <int R>
__attribute__((target("avx512f"))) void small_rows_avx512(int n, int kc, const float* a, int lda,
                                                          const float* b, int ldb, float* c,
                                                          int ldc) {
  for (int j0 = 0; j0 < n; j0 += 16) {
    const __mmask16 mask = static_cast<__mmask16>((1u << std::min(16, n - j0)) - 1u);
    __m512 acc[R];
    for (auto& v : acc) v = _mm512_setzero_ps();
    for (int p = 0; p < kc; ++p) {
      const __m512 bv = _mm512_maskz_loadu_ps(mask, b + static_cast<std::size_t>(p) * ldb + j0);
      for (int r = 0; r < R; ++r)
        acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(a[static_cast<std::size_t>(r) * lda + p]), bv,
                                 acc[r]);
    }
    for (int r = 0; r < R; ++r) {
      float* cr = c + static_cast<std::size_t>(r) * ldc + j0;
      _mm512_mask_storeu_ps(cr, mask, _mm512_add_ps(_mm512_maskz_loadu_ps(mask, cr), acc[r]));
    }
  }
}

using SmallRowsFn = void (*)(int, int, const float*, int, const float*, int, float*, int);

template <SmallRowsFn Rows8, SmallRowsFn Rows4, SmallRowsFn Rows1>
void small_kernel(int m, int n, int kc, const float* a, int lda, const float* b, int ldb,
                  float* c, int ldc) {
  int i = 0;
  for (; i + 8 <= m; i += 8)
    Rows8(n, kc, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
          c + static_cast<std::size_t>(i) * ldc, ldc);
  for (; i + 4 <= m; i += 4)
    Rows4(n, kc, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
          c + static_cast<std::size_t>(i) * ldc, ldc);
  for (; i < m; ++i)
    Rows1(n, kc, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
          c + static_cast<std::size_t>(i) * ldc, ldc);
}

#else  // !ASCEND_GEMM_X86

// Portable scalar fallback: a 4 x 8 accumulator tile the compiler
// auto-vectorizes for whatever ISA the build targets.
void micro_kernel_base(int kc, const float* ap, const float* bp, float* c, int ldc, int mr,
                       int nr) {
  constexpr int MRv = 4, NRv = 8;
  float acc[MRv][NRv] = {};
  for (int p = 0; p < kc; ++p) {
    const float* brow = bp + static_cast<std::size_t>(p) * NRv;
    const float* arow = ap + static_cast<std::size_t>(p) * MRv;
    for (int r = 0; r < MRv; ++r) {
      const float ar = arow[r];
      for (int j = 0; j < NRv; ++j) acc[r][j] += ar * brow[j];
    }
  }
  for (int r = 0; r < mr; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

// Small-shape kernel of the portable tier: micro_kernel_base's chain per
// element, A and B read in place.
void small_kernel_base(int m, int n, int kc, const float* a, int lda, const float* b, int ldb,
                       float* c, int ldc) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < kc; ++p)
        acc += a[static_cast<std::size_t>(i) * lda + p] * b[static_cast<std::size_t>(p) * ldb + j];
      c[static_cast<std::size_t>(i) * ldc + j] += acc;
    }
}

#endif  // ASCEND_GEMM_X86

/// small(m, n, kc, a, lda, b, ldb, c, ldc): one KC block of the small-shape
/// path, in the tier's micro-kernel arithmetic.
using SmallKernelFn = void (*)(int, int, int, const float*, int, const float*, int, float*, int);

struct Tile {
  int mr;
  int nr;
  MicroKernelFn kernel;
  SmallKernelFn small;
  Kernel id;         ///< resolved tier (never kAuto)
  const char* name;  ///< bench/metrics label
};

/// Widest f32 tier the CPU supports.
Kernel auto_kernel() {
#ifdef ASCEND_GEMM_X86
  if (__builtin_cpu_supports("avx512f")) return Kernel::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return Kernel::kAvx2;
#endif
  return Kernel::kBase;
}

Tile make_tile(Kernel k) {
  if (k == Kernel::kAuto) k = auto_kernel();
#ifdef ASCEND_GEMM_X86
  switch (k) {
    case Kernel::kAvx512:
      return Tile{8, 32, &micro_kernel_avx512,
                  &small_kernel<small_rows_avx512<8>, small_rows_avx512<4>, small_rows_avx512<1>>,
                  Kernel::kAvx512, "avx512"};
    case Kernel::kAvx2:
      return Tile{6, 16, &micro_kernel_avx2,
                  &small_kernel<small_rows_avx2<8>, small_rows_avx2<4>, small_rows_avx2<1>>,
                  Kernel::kAvx2, "avx2"};
    default:
      break;
  }
  return Tile{4, 8, &micro_kernel_base,
              &small_kernel<small_rows_base<8>, small_rows_base<4>, small_rows_base<1>>,
              Kernel::kBase, "base"};
#else
  return Tile{4, 8, &micro_kernel_base, &small_kernel_base, Kernel::kBase, "base"};
#endif
}

Kernel init_kernel() {
  const char* v = std::getenv("ASCEND_GEMM_KERNEL");
  if (v == nullptr) return Kernel::kAuto;
  const std::string_view s(v);
  Kernel want = Kernel::kAuto;
  if (s == "base")
    want = Kernel::kBase;
  else if (s == "avx2")
    want = Kernel::kAvx2;
  else if (s == "avx512")
    want = Kernel::kAvx512;
  // Unknown or unsupported pins fall back to auto so a config written on a
  // newer host stays runnable here.
  return kernel_supported(want) ? want : Kernel::kAuto;
}

Tile& tile_ref() {
  static Tile t = make_tile(init_kernel());
  return t;
}

const Tile& tile() { return tile_ref(); }

/// Pack an up-to-mr-row panel of the A block into mr_stride-interleaved
/// layout (dst[p * mr_stride + r]); rows beyond mr are zero so the
/// micro-kernel never branches on the edge.
template <bool ATrans>
void pack_a_panel(const float* a, int lda, int i0, int mr, int mr_stride, int p0, int kc,
                  float* dst) {
  for (int p = 0; p < kc; ++p) {
    float* d = dst + static_cast<std::size_t>(p) * mr_stride;
    for (int r = 0; r < mr; ++r) d[r] = a_elem<ATrans>(a, lda, i0 + r, p0 + p);
    for (int r = mr; r < mr_stride; ++r) d[r] = 0.0f;
  }
}

/// Pack an up-to-nr-column strip of the B block (dst[p * nr_stride + j],
/// zero-padded columns beyond nr).
template <bool BTrans>
void pack_b_strip(const float* b, int ldb, int p0, int kc, int j0, int nr, int nr_stride,
                  float* dst) {
  for (int p = 0; p < kc; ++p) {
    float* d = dst + static_cast<std::size_t>(p) * nr_stride;
    for (int j = 0; j < nr; ++j) d[j] = b_elem<BTrans>(b, ldb, p0 + p, j0 + j);
    for (int j = nr; j < nr_stride; ++j) d[j] = 0.0f;
  }
}

// Contraction block: KC x NR B strips stay L1-resident across a whole A
// panel; MC/NC bound the packed block footprints (multiples of mr/nr keep
// edges rare). The accumulation order of every C element is p-ascending
// inside each KC block with KC blocks folding into C in order — fixed
// regardless of tiling or row-band partitioning (determinism contract).
constexpr int KC = 256;
/// Row (MC) and column (NC) block sizes in micro-tiles of the active tier.
constexpr int kMcPanels = 24;
constexpr int kNcStrips = 15;

/// Grow-only thread-local packing scratch: per-call heap allocation of the
/// pack buffers would mmap/page-fault hundreds of KB on every GEMM. Each
/// thread (caller or pool worker) keeps its own, so parallel row bands never
/// share a buffer, and owns its cache lines (nn/cache_line.h): a small one
/// (gemm_nt_small's transpose) is rewritten on every attention head.
float* pack_scratch_a(std::size_t n) {
  thread_local CacheLineVector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

float* pack_scratch_b(std::size_t n) {
  thread_local CacheLineVector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// OpenMP team for one blocked GEMM: the whole machine above 16384
/// multiply-adds, serial at or below it and inside an enclosing parallel
/// region (see gemm.h).
int team_width(int m, int n, int k) {
#ifdef _OPENMP
  if (omp_get_level() == 0 && static_cast<long long>(m) * n * k > 16384)
    return omp_get_max_threads();
#else
  (void)m;
  (void)n;
  (void)k;
#endif
  return 1;
}

/// `panels`, when given, is B already packed for the active tier in this
/// function's block order (PackedB::panels); the (jc, pc) block then starts
/// at jc * k + pc * nstrips * NR instead of being packed per call.
template <bool ATrans, bool BTrans>
void gemm_blocked(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
                  int ldc, const float* panels = nullptr) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const Tile& t = tile();
  const int MR = t.mr, NR = t.nr;
  // Skinny outputs cannot amortise an MR-padded panel; the seed-order loop is
  // near-optimal there (contiguous axpy / dot) and keeps batch-1 serving fast.
  if (m < MR) {
    gemm_naive<ATrans, BTrans>(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  const int MC = kMcPanels * MR;
  const int NC = kNcStrips * NR;
  const int threads = team_width(m, n, k);
  float* bpack = panels ? nullptr : pack_scratch_b(static_cast<std::size_t>(KC) * NC);
  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    const int nstrips = (nc + NR - 1) / NR;
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      const float* bblock = bpack;
      if (panels)
        bblock = panels + static_cast<std::size_t>(jc) * k +
                 static_cast<std::size_t>(pc) * nstrips * NR;
      else
        for (int js = 0; js < nstrips; ++js) {
          const int j0 = jc + js * NR;
          pack_b_strip<BTrans>(b, ldb, pc, kc, j0, std::min(NR, n - j0), NR,
                               bpack + static_cast<std::size_t>(js) * kc * NR);
        }
      const int niblocks = (m + MC - 1) / MC;
      auto run_iblocks = [&](int ib0, int ib1) {
        float* apack = pack_scratch_a(static_cast<std::size_t>(MC) * kc);
        for (int ib = ib0; ib < ib1; ++ib) {
          const int ic = ib * MC;
          const int mc = std::min(MC, m - ic);
          const int npanels = (mc + MR - 1) / MR;
          for (int is = 0; is < npanels; ++is) {
            const int i0 = ic + is * MR;
            pack_a_panel<ATrans>(a, lda, i0, std::min(MR, m - i0), MR, pc, kc,
                                 apack + static_cast<std::size_t>(is) * kc * MR);
          }
          for (int js = 0; js < nstrips; ++js) {
            const int j0 = jc + js * NR;
            const int nr = std::min(NR, n - j0);
            const float* bp = bblock + static_cast<std::size_t>(js) * kc * NR;
            for (int is = 0; is < npanels; ++is) {
              const int i0 = ic + is * MR;
              t.kernel(kc, apack + static_cast<std::size_t>(is) * kc * MR, bp,
                       c + static_cast<std::size_t>(i0) * ldc + j0, ldc, std::min(MR, m - i0),
                       nr);
            }
          }
        }
      };
#ifdef _OPENMP
      if (threads > 1 && niblocks > 1) {
        // The team is `threads` wide even when there are fewer i-blocks: a
        // narrower team makes libgomp retire the surplus workers, and the
        // fresh threads of the next full-width region (e.g. the per-head
        // attention loop) would rebuild their thread-local pack scratch —
        // heap allocations on every forward.
#pragma omp parallel for schedule(static) num_threads(threads)
        for (int ib = 0; ib < niblocks; ++ib) run_iblocks(ib, ib + 1);
        continue;
      }
#endif
      run_iblocks(0, niblocks);
    }
  }
}

}  // namespace

bool kernel_supported(Kernel k) {
  switch (k) {
    case Kernel::kAuto:
    case Kernel::kBase:
      return true;
#ifdef ASCEND_GEMM_X86
    case Kernel::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Kernel::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
#endif
    default:
      return false;
  }
}

Kernel kernel() { return tile_ref().id; }

void set_kernel(Kernel k) {
  if (!kernel_supported(k))
    throw std::invalid_argument("gemm::set_kernel: kernel tier unsupported on this CPU");
  tile_ref() = make_tile(k);
}

const char* kernel_name() { return tile_ref().name; }

void gemm_nn(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
             int ldc) {
  gemm_blocked<false, false>(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_tn(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
             int ldc) {
  gemm_blocked<true, false>(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_nt(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
             int ldc) {
  gemm_blocked<false, true>(m, n, k, a, lda, b, ldb, c, ldc);
}

PackedB pack_b(int k, int n, const float* b, int ldb) {
  const Tile& t = tile();
  const int NR = t.nr, NC = kNcStrips * NR;
  PackedB out;
  out.k = k;
  out.n = n;
  out.tier = t.id;
  out.panels.resize(static_cast<std::size_t>(k) * ((n + NR - 1) / NR) * NR);
  // gemm_blocked's order: each (jc, pc) block's strips are contiguous, so
  // walking the blocks in its loop order lands every block at its offset.
  float* dst = out.panels.data();
  for (int jc = 0; jc < n; jc += NC) {
    const int nstrips = (std::min(NC, n - jc) + NR - 1) / NR;
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      for (int js = 0; js < nstrips; ++js, dst += static_cast<std::size_t>(kc) * NR) {
        const int j0 = jc + js * NR;
        pack_b_strip<false>(b, ldb, pc, kc, j0, std::min(NR, n - j0), NR, dst);
      }
    }
  }
  return out;
}

void gemm_nn_packed(int m, const float* a, int lda, const PackedB& bp, const float* b, int ldb,
                    float* c, int ldc) {
  const float* panels = bp.tier == tile().id ? bp.panels.data() : nullptr;
  gemm_blocked<false, false>(m, bp.n, bp.k, a, lda, b, ldb, c, ldc, panels);
}

void gemm_nn_small(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                   float* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const Tile& t = tile();
  if (m < t.mr) {
    gemm_naive<false, false>(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  for (int pc = 0; pc < k; pc += KC)
    t.small(m, n, std::min(KC, k - pc), a + pc, lda, b + static_cast<std::size_t>(pc) * ldb, ldb,
            c, ldc);
}

void gemm_nt_small(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                   float* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (m < tile().mr) {
    gemm_naive<false, true>(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // B^T [k, n] into this thread's B scratch, so the row-broadcast kernel
  // reads contiguous rows.
  float* bt = pack_scratch_b(static_cast<std::size_t>(k) * n);
  for (int j = 0; j < n; ++j) {
    const float* brow = b + static_cast<std::size_t>(j) * ldb;
    for (int p = 0; p < k; ++p) bt[static_cast<std::size_t>(p) * n + j] = brow[p];
  }
  gemm_nn_small(m, n, k, a, lda, bt, n, c, ldc);
}

// ---------------------------------------------------------------------------
// Ternary codes as int8 (pack_codes / gemm_codes).
//
// A code GEMM sums products of 0/±1 values, so any order gives the same
// integer; the kernels below compute it in int32 with dot-product
// instructions on 4 bytes per lane. The u8 x s8 instructions need an
// unsigned operand, so A enters as a + 1 in {0, 1, 2} and the packed column
// sums take the extra sum(b) back out.
// ---------------------------------------------------------------------------

#ifdef ASCEND_GEMM_X86

namespace {

constexpr int kCodeCols = 16;  ///< columns per packed chunk

/// Grow-only thread-local scratch for A as u8 (a + 1), rows padded to whole
/// groups of 4 with zeros.
unsigned char* codes_scratch(std::size_t n) {
  thread_local CacheLineVector<unsigned char> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

bool has_avx512_vnni() {
  static const bool yes =
      __builtin_cpu_supports("avx512vnni") && __builtin_cpu_supports("avx512bw");
  return yes;
}

/// A[m,k] codes -> u8 a + 1, row stride k4 * 4 (zero padding past k). By
/// sign, so any float maps to 0, 1 or 2 without a float -> int conversion.
void codes_to_u8(int m, int k, const float* a, int lda, int k4, unsigned char* out) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<std::size_t>(i) * lda;
    unsigned char* o = out + static_cast<std::size_t>(i) * k4 * 4;
    for (int p = 0; p < k; ++p)
      o[p] = static_cast<unsigned char>(1 + (ar[p] > 0.0f) - (ar[p] < 0.0f));
    for (int p = k; p < k4 * 4; ++p) o[p] = 0;
  }
}

// gcc 12 reports the `__Y = __Y` placeholder inside the unmasked AVX-512
// intrinsics as maybe-uninitialized; the placeholder is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// 8 rows x 2 chunks (32 columns) per tile, one vpdpbusd per row, chunk and
/// group of 4 rows of B.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void gemm_codes_vnni(
    int m, int k4, const unsigned char* au, const PackedCodes& bp, float* c, int ldc) {
  const int nchunks = static_cast<int>(bp.colsum.size()) / kCodeCols;
  const std::size_t chunk_bytes = static_cast<std::size_t>(k4) * 64;
  for (int i0 = 0; i0 < m; i0 += 8) {
    const int mr = std::min(8, m - i0);
    for (int j = 0; j < nchunks; j += 2) {
      const int nc = std::min(2, nchunks - j);
      const signed char* b0 = bp.panels.data() + static_cast<std::size_t>(j) * chunk_bytes;
      const signed char* b1 = nc > 1 ? b0 + chunk_bytes : b0;
      __m512i acc[8][2];
      for (auto& row : acc) row[0] = row[1] = _mm512_setzero_si512();
      for (int g = 0; g < k4; ++g) {
        const __m512i v0 = _mm512_loadu_si512(b0 + static_cast<std::size_t>(g) * 64);
        const __m512i v1 = _mm512_loadu_si512(b1 + static_cast<std::size_t>(g) * 64);
        for (int r = 0; r < 8; ++r) {
          // Rows past m repeat the last one; their sums are never stored.
          int a4;
          std::memcpy(&a4, au + static_cast<std::size_t>(i0 + std::min(r, mr - 1)) * k4 * 4 + g * 4,
                      4);
          const __m512i av = _mm512_set1_epi32(a4);
          acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, v0);
          acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, v1);
        }
      }
      for (int r = 0; r < mr; ++r)
        for (int h = 0; h < nc; ++h) {
          const int col = (j + h) * kCodeCols;
          const int live = std::min(kCodeCols, bp.n - col);
          const __m512i sum =
              _mm512_sub_epi32(acc[r][h], _mm512_loadu_si512(bp.colsum.data() + col));
          _mm512_mask_storeu_ps(c + static_cast<std::size_t>(i0 + r) * ldc + col,
                                static_cast<__mmask16>((1u << live) - 1u),
                                _mm512_cvtepi32_ps(sum));
        }
    }
  }
}
#pragma GCC diagnostic pop

/// 4 rows x 2 half-chunks (16 columns) per tile: vpmaddubsw sums pairs of
/// u8 x s8 products into int16 (at most 4 in magnitude here), vpmaddwd
/// pairs those into the group's int32 sum.
__attribute__((target("avx2"))) void gemm_codes_avx2(int m, int k4, const unsigned char* au,
                                                      const PackedCodes& bp, float* c, int ldc) {
  const int nchunks = static_cast<int>(bp.colsum.size()) / kCodeCols;
  const std::size_t chunk_bytes = static_cast<std::size_t>(k4) * 64;
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int i0 = 0; i0 < m; i0 += 4) {
    const int mr = std::min(4, m - i0);
    for (int j = 0; j < nchunks; ++j) {
      const signed char* b = bp.panels.data() + static_cast<std::size_t>(j) * chunk_bytes;
      __m256i acc[4][2];
      for (auto& row : acc) row[0] = row[1] = _mm256_setzero_si256();
      for (int g = 0; g < k4; ++g) {
        const __m256i v0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + static_cast<std::size_t>(g) * 64));
        const __m256i v1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + static_cast<std::size_t>(g) * 64 + 32));
        for (int r = 0; r < 4; ++r) {
          int a4;
          std::memcpy(&a4, au + static_cast<std::size_t>(i0 + std::min(r, mr - 1)) * k4 * 4 + g * 4,
                      4);
          const __m256i av = _mm256_set1_epi32(a4);
          acc[r][0] = _mm256_add_epi32(acc[r][0],
                                       _mm256_madd_epi16(_mm256_maddubs_epi16(av, v0), ones));
          acc[r][1] = _mm256_add_epi32(acc[r][1],
                                       _mm256_madd_epi16(_mm256_maddubs_epi16(av, v1), ones));
        }
      }
      for (int r = 0; r < mr; ++r)
        for (int h = 0; h < 2; ++h) {
          const int col = j * kCodeCols + h * 8;
          const int live = std::min(8, bp.n - col);
          if (live <= 0) continue;
          const __m256i sum = _mm256_sub_epi32(
              acc[r][h],
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp.colsum.data() + col)));
          _mm256_maskstore_ps(c + static_cast<std::size_t>(i0 + r) * ldc + col,
                              _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane),
                              _mm256_cvtepi32_ps(sum));
        }
    }
  }
}

}  // namespace

#endif  // ASCEND_GEMM_X86

PackedCodes pack_codes(int k, int n, const float* b, int ldb) {
  PackedCodes out;
  out.k = k;
  out.n = n;
#ifdef ASCEND_GEMM_X86
  const Kernel tier = tile().id;
  if (tier == Kernel::kBase || k <= 0 || n <= 0) return out;
  // Only 0/±1 pack: a NaN level (from a NaN weight) keeps the float GEMM,
  // which propagates it.
  for (int p = 0; p < k; ++p)
    for (int j = 0; j < n; ++j) {
      const float v = b[static_cast<std::size_t>(p) * ldb + j];
      if (v != 0.0f && v != 1.0f && v != -1.0f) return out;
    }
  out.tier = tier;
  const int k4 = (k + 3) / 4;
  const int nchunks = (n + kCodeCols - 1) / kCodeCols;
  out.panels.assign(static_cast<std::size_t>(nchunks) * k4 * 64, 0);
  out.colsum.assign(static_cast<std::size_t>(nchunks) * kCodeCols, 0);
  for (int p = 0; p < k; ++p)
    for (int j = 0; j < n; ++j) {
      const int v = static_cast<int>(b[static_cast<std::size_t>(p) * ldb + j]);
      out.panels[(static_cast<std::size_t>(j / kCodeCols) * k4 + p / 4) * 64 +
                 (j % kCodeCols) * 4 + p % 4] = static_cast<signed char>(v);
      out.colsum[static_cast<std::size_t>(j)] += v;
    }
#else
  (void)b;
  (void)ldb;
#endif
  return out;
}

bool gemm_codes(int m, const float* a, int lda, const PackedCodes& bp, float* c, int ldc) {
#ifdef ASCEND_GEMM_X86
  if (bp.tier == Kernel::kAuto || bp.tier != tile().id) return false;
  if (m <= 0) return true;
  const int k4 = (bp.k + 3) / 4;
  unsigned char* au = codes_scratch(static_cast<std::size_t>(m) * k4 * 4);
  codes_to_u8(m, bp.k, a, lda, k4, au);
  if (bp.tier == Kernel::kAvx512 && has_avx512_vnni())
    gemm_codes_vnni(m, k4, au, bp, c, ldc);
  else
    gemm_codes_avx2(m, k4, au, bp, c, ldc);
  return true;
#else
  (void)m, (void)a, (void)lda, (void)bp, (void)c, (void)ldc;
  return false;
#endif
}

}  // namespace ascend::nn::gemm
