#include "nn/ops.h"

#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

namespace ascend::nn {
namespace {

void check_rank2(const Tensor& t, const char* who) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(who) + ": rank-2 tensor required");
}

constexpr float kInvSqrt2 = 0.7071067811865475f;
constexpr float kInvSqrt2Pi = 0.3989422804014327f;

bool use_reference_gemm() { return gemm::backend() == gemm::Backend::kReference; }

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dimension mismatch");
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (!use_reference_gemm()) {
    gemm::gemm_nn(m, n, k, pa, k, pb, n, pc, n);
    return c;
  }
  // ASCEND_GEMM=reference: the seed's naive loops, verbatim.
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 16384)
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

Tensor matmul_tn(const Tensor& a_kxm, const Tensor& b_kxn) {
  check_rank2(a_kxm, "matmul_tn");
  check_rank2(b_kxn, "matmul_tn");
  const int k = a_kxm.dim(0), m = a_kxm.dim(1), n = b_kxn.dim(1);
  if (b_kxn.dim(0) != k) throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  Tensor c({m, n});
  const float* pa = a_kxm.data();
  const float* pb = b_kxn.data();
  float* pc = c.data();
  if (!use_reference_gemm()) {
    gemm::gemm_tn(m, n, k, pa, m, pb, n, pc, n);
    return c;
  }
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 16384)
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

Tensor matmul_nt(const Tensor& a_mxn, const Tensor& b_kxn) {
  check_rank2(a_mxn, "matmul_nt");
  check_rank2(b_kxn, "matmul_nt");
  const int m = a_mxn.dim(0), n = a_mxn.dim(1), k = b_kxn.dim(0);
  if (b_kxn.dim(1) != n) throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  Tensor c({m, k});
  const float* pa = a_mxn.data();
  const float* pb = b_kxn.data();
  float* pc = c.data();
  if (!use_reference_gemm()) {
    // C[m, k] = A[m, n] * B[k, n]^T: contraction over n.
    gemm::gemm_nt(m, k, n, pa, n, pb, n, pc, k);
    return c;
  }
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 16384)
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

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c = Tensor::uninitialized(a.shape());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor c = Tensor::uninitialized(a.shape());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor c = Tensor::uninitialized(a.shape());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = a[i] * b[i];
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = Tensor::uninitialized(a.shape());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = a[i] * s;
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

Tensor gelu_forward(const Tensor& x) {
  Tensor y = Tensor::uninitialized(x.shape());
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float v = x[i];
    y[i] = 0.5f * v * (1.0f + std::erf(v * kInvSqrt2));
  }
  return y;
}

Tensor gelu_backward(const Tensor& x, const Tensor& grad_y) {
  check_same_shape(x, grad_y, "gelu_backward");
  Tensor gx = Tensor::uninitialized(x.shape());
  for (std::size_t i = 0; i < gx.size(); ++i) {
    const float v = x[i];
    const float phi = 0.5f * (1.0f + std::erf(v * kInvSqrt2));
    const float pdf = kInvSqrt2Pi * std::exp(-0.5f * v * v);
    gx[i] = grad_y[i] * (phi + v * pdf);
  }
  return gx;
}

Tensor softmax_rows(const Tensor& x) {
  check_rank2(x, "softmax_rows");
  const int rows = x.dim(0), cols = x.dim(1);
  Tensor y = Tensor::uninitialized(x.shape());
#pragma omp parallel for schedule(static) if (rows > 16)
  for (int r = 0; r < rows; ++r) {
    const float* xrow = x.data() + static_cast<std::size_t>(r) * cols;
    float* row = y.data() + static_cast<std::size_t>(r) * cols;
    float mx = xrow[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xrow[c]);
    float sum = 0.0f;
    for (int c = 0; c < cols; ++c) {
      row[c] = std::exp(xrow[c] - mx);
      sum += row[c];
    }
    for (int c = 0; c < cols; ++c) row[c] /= sum;
  }
  return y;
}

Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_y) {
  check_same_shape(y, grad_y, "softmax_rows_backward");
  const int rows = y.dim(0), cols = y.dim(1);
  Tensor gx = Tensor::uninitialized(y.shape());
#pragma omp parallel for schedule(static) if (rows > 16)
  for (int r = 0; r < rows; ++r) {
    const float* yr = y.data() + static_cast<std::size_t>(r) * cols;
    const float* gr = grad_y.data() + static_cast<std::size_t>(r) * cols;
    float* out = gx.data() + static_cast<std::size_t>(r) * cols;
    float dot = 0.0f;
    for (int c = 0; c < cols; ++c) dot += yr[c] * gr[c];
    for (int c = 0; c < cols; ++c) out[c] = yr[c] * (gr[c] - dot);
  }
  return gx;
}

}  // namespace ascend::nn
