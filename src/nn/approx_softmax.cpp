#include "nn/approx_softmax.h"

#include <stdexcept>

namespace ascend::nn {

namespace {

// One Euler step over one row: y += (x*y - y*(x.y))/k. Shared by the
// training forward and the const infer path so they cannot diverge.
inline void approx_softmax_step_row(const float* xr, float* yr, int m, float invk) {
  float s = 0.0f;
  for (int i = 0; i < m; ++i) s += xr[i] * yr[i];
  for (int i = 0; i < m; ++i) {
    const float z = xr[i] * yr[i];
    yr[i] += (z - yr[i] * s) * invk;
  }
}

// One Euler step over every row (the training forward's per-step caches
// need the whole tensor between steps).
void approx_softmax_step(const Tensor& x, Tensor& y, float invk) {
  const int rows = x.dim(0), m = x.dim(1);
#pragma omp parallel for schedule(static) if (rows > 16)
  for (int r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * m;
    approx_softmax_step_row(x.data() + off, y.data() + off, m, invk);
  }
}

}  // namespace

ApproxSoftmax::ApproxSoftmax(int k) : k_(k) {
  if (k < 1) throw std::invalid_argument("ApproxSoftmax: k >= 1");
}

void ApproxSoftmax::set_k(int k) {
  if (k < 1) throw std::invalid_argument("ApproxSoftmax::set_k: k >= 1");
  k_ = k;
}

Tensor ApproxSoftmax::forward(const Tensor& x) {
  if (x.rank() != 2) throw std::invalid_argument("ApproxSoftmax::forward: rank-2 required");
  const int rows = x.dim(0), m = x.dim(1);
  cached_x_ = x;
  cached_u_.clear();
  cached_u_.reserve(static_cast<std::size_t>(k_));

  Tensor y({rows, m}, 1.0f / static_cast<float>(m));
  const float invk = 1.0f / static_cast<float>(k_);
  for (int j = 0; j < k_; ++j) {
    cached_u_.push_back(y);
    approx_softmax_step(x, y, invk);
  }
  return y;
}

void ApproxSoftmax::infer_rows(const float* x, int rows, int m, float* y) const {
  // Rows are independent, so running all k steps on one row before the next
  // keeps forward()'s step-by-step bits.
  const float init = 1.0f / static_cast<float>(m);
  const float invk = 1.0f / static_cast<float>(k_);
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * m;
    float* yr = y + static_cast<std::size_t>(r) * m;
    for (int i = 0; i < m; ++i) yr[i] = init;
    for (int j = 0; j < k_; ++j) approx_softmax_step_row(xr, yr, m, invk);
  }
}

Tensor ApproxSoftmax::infer(const Tensor& x) const {
  if (x.rank() != 2) throw std::invalid_argument("ApproxSoftmax::infer: rank-2 required");
  const int rows = x.dim(0), m = x.dim(1);
  Tensor y = Tensor::uninitialized(x.shape());
#pragma omp parallel for schedule(static) if (rows > 16)
  for (int r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * m;
    infer_rows(x.data() + off, 1, m, y.data() + off);
  }
  return y;
}

Tensor ApproxSoftmax::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, cached_x_, "ApproxSoftmax::backward");
  const int rows = grad_out.dim(0), m = grad_out.dim(1);
  const float invk = 1.0f / static_cast<float>(k_);

  Tensor g = grad_out;                 // running dL/dy_j
  Tensor gx({rows, m});                // accumulated dL/dx
  for (int j = k_ - 1; j >= 0; --j) {
    const Tensor& u = cached_u_[static_cast<std::size_t>(j)];
#pragma omp parallel for schedule(static) if (rows > 16)
    for (int r = 0; r < rows; ++r) {
      const float* xr = cached_x_.data() + static_cast<std::size_t>(r) * m;
      const float* ur = u.data() + static_cast<std::size_t>(r) * m;
      float* gr = g.data() + static_cast<std::size_t>(r) * m;
      float* gxr = gx.data() + static_cast<std::size_t>(r) * m;
      float s = 0.0f, gu = 0.0f;
      for (int i = 0; i < m; ++i) {
        s += xr[i] * ur[i];
        gu += gr[i] * ur[i];
      }
      for (int i = 0; i < m; ++i) {
        gxr[i] += (gr[i] - gu) * ur[i] * invk;
        gr[i] = gr[i] * (1.0f + xr[i] * invk - s * invk) - gu * xr[i] * invk;
      }
    }
  }
  // g now holds dL/du_0, which flows nowhere (y_0 is the constant 1/m);
  // the layer's input gradient is the accumulated dL/dx.
  return gx;
}

}  // namespace ascend::nn
