#pragma once
// approx_softmax.h — differentiable iterative approximate softmax.
//
// The float-level Algorithm 1 of the paper (see sc/softmax_iter.h for the SC
// circuit) with a hand-derived backward pass, used during approximate-
// softmax-aware fine-tuning (Section V, stage 2). For one Euler step with
// u = y_{j-1}, S = x . u:
//
//   y = u + (x*u - u*S)/k
//   dL/du_t = g_t (1 + x_t/k - S/k) - (g.u) x_t / k
//   dL/dx_t = (g_t - g.u) u_t / k
//
// The k steps are chained in reverse, with the per-step u cached.

#include <vector>

#include "nn/tensor.h"

namespace ascend::nn {

class ApproxSoftmax {
 public:
  explicit ApproxSoftmax(int k = 3);

  int k() const { return k_; }
  void set_k(int k);

  /// Row-wise Algorithm 1 over a rank-2 tensor [rows, m].
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);
  /// Re-entrant forward: no per-step caches, bit-exact with forward().
  Tensor infer(const Tensor& x) const;
  /// infer()'s row kernel, serially over `rows` rows of `m` floats from x
  /// into y (attention's per-head score tiles); same bits as infer().
  void infer_rows(const float* x, int rows, int m, float* y) const;

 private:
  int k_;
  Tensor cached_x_;
  std::vector<Tensor> cached_u_;  // y_{j-1} for each of the k steps
};

}  // namespace ascend::nn
