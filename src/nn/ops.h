#pragma once
// ops.h — tensor kernels (matmuls, activations, softmax).
//
// The matmul wrappers check shapes and run the blocked/tiled kernels in
// nn/gemm.h.

#include "nn/tensor.h"

namespace ascend::nn {

/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[M,N] = A^T * B[K,N] with A stored [K,M], used for dW.
Tensor matmul_tn(const Tensor& a_kxm, const Tensor& b_kxn);
/// C[M,K] = A[M,N] * B^T with B stored [K,N], used for dX.
Tensor matmul_nt(const Tensor& a_mxn, const Tensor& b_kxn);

/// Elementwise helpers.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
void add_inplace(Tensor& a, const Tensor& b);

/// y = GELU(x) (exact erf form) and its input gradient.
Tensor gelu_forward(const Tensor& x);
Tensor gelu_backward(const Tensor& x, const Tensor& grad_y);

/// Ternary input code of a W2A2 linear with input step s = 2 * half_step:
/// clamp(round(x / s), -1, +1) as thresholds at ±s/2 (halves away from
/// zero). NaN codes 0.
inline float ternary_code(float x, float half_step) {
  return x >= half_step ? 1.0f : (x <= -half_step ? -1.0f : 0.0f);
}

/// Where ternary_code(gelu(v), half_step) changes along v, for one half
/// step. GELU is increasing for v > -0.75, so v >= one_from codes +1. When
/// half_step is below GELU's minimum magnitude (about 0.17) a -1 region
/// exists around v = -0.75. Each exact window brackets the floats near a
/// crossing where rounding makes the code disagree with those cut points;
/// only elements inside a window evaluate GELU. Absent cuts and windows
/// are NaN, which no comparison admits.
struct GeluCodeCuts {
  float half_step;
  float one_from;           ///< v >= one_from codes +1
  float minus_lo, minus_hi;  ///< minus_lo <= v <= minus_hi codes -1
  float exact_lo[3], exact_hi[3];
};

/// Derives the cuts by bisecting the whole float line, infinities included,
/// into runs of one code. It assumes std::erf(float) is nondecreasing.
GeluCodeCuts gelu_code_cuts(float half_step);

/// Replaces every element v of x by ternary_code(gelu(v), cuts.half_step),
/// bit-identical with applying ternary_code to gelu_forward(x).
void gelu_codes_inplace(Tensor& x, const GeluCodeCuts& cuts);

/// Row-wise exact softmax over the last dimension of a rank-2 tensor, and
/// its backward pass given the cached output.
Tensor softmax_rows(const Tensor& x);
/// The same row kernel, serially over `rows` rows of `cols` floats from x
/// into y (attention's per-head score tiles).
void softmax_rows(const float* x, int rows, int cols, float* y);
Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_y);

}  // namespace ascend::nn
