#pragma once
// gemm.h — blocked/tiled f32 GEMM kernel subsystem.
//
// Dense kernels are cache-blocked and register-tiled: A and B blocks are
// packed into MR-/NR-interleaved panels so the micro-kernel's innermost loops
// stream contiguously and auto-vectorize, with an MR x NR accumulator tile
// the compiler keeps in vector registers across the whole contraction.
//
// Determinism: the accumulation order of every output element is fixed —
// the contraction dimension is walked ascending inside each K block and K
// blocks fold into C in ascending order. Parallelism partitions *rows*,
// which never changes any element's operation order, so results are
// bit-identical run-to-run and across thread counts.
//
// Threading: each call picks its own OpenMP team. Above 16384 multiply-adds
// (m*n*k) the row bands run on omp_get_max_threads() threads; at or below
// it, inside an enclosing parallel region (attention's (batch, head) tile
// loop), or without OpenMP, the call runs serially.
//
// Skinny outputs (fewer rows than the tier's MR) skip packing and run the
// seed's naive loops in the seed's element order.

#include "nn/cache_line.h"

namespace ascend::nn::gemm {

/// Micro-kernel tier of the blocked kernels. kAuto resolves at startup to
/// the widest tier the CPU supports: base (SSE 4x8) -> avx2 (6x16 FMA) ->
/// avx512 (8x32 FMA). The f32 FMA tiers chain every output element through
/// one accumulator in k-ascending order, so avx2 and avx512 produce
/// bit-identical results (vector width only changes how many *independent*
/// chains run side by side).
enum class Kernel { kAuto, kBase, kAvx2, kAvx512 };

/// True when the host CPU can execute tier `k` (kAuto and kBase: always).
bool kernel_supported(Kernel k);
/// Active micro-kernel tier (env-initialised from ASCEND_GEMM_KERNEL =
/// auto|base|avx2|avx512; unsupported or unknown values fall back to auto
/// so a pinned config stays runnable on older hosts).
Kernel kernel();
/// Override the tier for this process. Throws std::invalid_argument when the
/// CPU lacks it (tests/benches only; not thread-safe against in-flight GEMMs).
void set_kernel(Kernel k);
/// Resolved tier name ("base", "avx2", "avx512") for bench metadata — kAuto
/// reports the tier it resolved to.
const char* kernel_name();

/// Pointer-level strided kernels. All ACCUMULATE into C (callers pass
/// zero-initialised or pre-loaded C); ld* are row strides of the *stored*
/// matrices, which lets attention read Q/K/V panels straight out of a fused
/// qkv projection and write per-head context tiles into the merged output.
///
/// C[m,n] += A[m,k] * B[k,n].
void gemm_nn(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
             int ldc);
/// C[m,n] += A^T * B with A stored [k,m].
void gemm_tn(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
             int ldc);
/// C[m,n] += A * B^T with B stored [n,k].
void gemm_nt(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float* c,
             int ldc);

/// A constant right-hand side B[k,n] packed once into one tier's NR-wide
/// strips, laid out in gemm_nn's own block order (NC column blocks, then KC
/// contraction blocks, then strips), so a matrix multiplied on every call
/// (a Linear's frozen weight) skips the per-call B packing.
struct PackedB {
  int k = 0, n = 0;
  Kernel tier = Kernel::kAuto;  ///< tier packed for; kAuto: nothing packed
  CacheLineVector<float> panels;  ///< line-aligned: same loads in every process
};

/// Packs B[k,n] (row stride ldb) for the active tier.
PackedB pack_b(int k, int n, const float* b, int ldb);

/// C[m,n] += A[m,k] * B[k,n] with B supplied both unpacked (`b`, row stride
/// ldb) and as its panels `bp` (k and n come from bp). Bit-identical with
/// gemm_nn on the same operands: the panels feed the same micro-kernel in
/// the same block order, m < MR runs the seed loop on `b`, and panels packed
/// for another tier than the active one are ignored in favour of `b`.
void gemm_nn_packed(int m, const float* a, int lda, const PackedB& bp, const float* b, int ldb,
                    float* c, int ldc);

/// A ternary right-hand side B[k,n] (every element 0 or ±1) packed once as
/// int8 for the integer dot-product kernels of the wide tiers: 16-column
/// chunks of groups of 4 rows, each group 16 columns x 4 bytes, plus every
/// column's sum. The base tier packs nothing (tier stays kAuto): it keeps
/// multiplying the float codes through gemm_nn_packed. Neither does a matrix
/// with an element other than 0 or ±1 (a NaN level).
struct PackedCodes {
  int k = 0, n = 0;
  Kernel tier = Kernel::kAuto;  ///< tier packed for; kAuto: nothing packed
  CacheLineVector<signed char> panels;
  CacheLineVector<int> colsum;  ///< per column, padded to whole chunks
};

/// Packs the 0/±1 matrix B[k,n] (row stride ldb) for the active tier.
PackedCodes pack_codes(int k, int n, const float* b, int ldb);

/// C[m,n] = A[m,k] * B for 0/±1 codes A (floats, row stride lda; any other
/// value counts as its sign) and B packed by pack_codes, overwriting C. The
/// products and sums are exact integers, so C holds the same floats gemm_nn
/// gives on the float codes as long as every |sum| is below 2^24
/// (k < 2^24). Returns false, writing nothing, when `bp` is not packed for
/// the active tier.
bool gemm_codes(int m, const float* a, int lda, const PackedCodes& bp, float* c, int ldc);

/// Small-shape products for attention's per-head tiles: serial and without
/// panel packing, reading B rows in place (gemm_nt_small transposes its B
/// into thread-local scratch first). Each output element keeps the active
/// tier's arithmetic — a zero-started chain per KC block, multiply then add
/// on the base tier and fused multiply-adds on the FMA tiers, folded into C
/// block by block — so the results are bit-identical with gemm_nn / gemm_nt
/// on the same operands (m < MR runs the same seed loop). Meant for shapes
/// of a few dozen rows and columns; larger ones belong on gemm_nn / gemm_nt.
void gemm_nn_small(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                   float* c, int ldc);
void gemm_nt_small(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                   float* c, int ldc);

}  // namespace ascend::nn::gemm
