#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/float_key.h"
#include "nn/gemm.h"

namespace ascend::nn {
namespace {

void check_rank2(const Tensor& t, const char* who) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(who) + ": rank-2 tensor required");
}

constexpr float kInvSqrt2 = 0.7071067811865475f;
constexpr float kInvSqrt2Pi = 0.3989422804014327f;

// GELU as the product gelu_forward rounds: half(v) * gate(v).
inline float gelu_half(float v) { return 0.5f * v; }
inline float gelu_gate(float v) { return 1.0f + std::erf(v * kInvSqrt2); }
inline float gelu_value(float v) { return gelu_half(v) * gelu_gate(v); }

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dimension mismatch");
  Tensor c({m, n});
  gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c;
}

Tensor matmul_tn(const Tensor& a_kxm, const Tensor& b_kxn) {
  check_rank2(a_kxm, "matmul_tn");
  check_rank2(b_kxn, "matmul_tn");
  const int k = a_kxm.dim(0), m = a_kxm.dim(1), n = b_kxn.dim(1);
  if (b_kxn.dim(0) != k) throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  Tensor c({m, n});
  gemm::gemm_tn(m, n, k, a_kxm.data(), m, b_kxn.data(), n, c.data(), n);
  return c;
}

Tensor matmul_nt(const Tensor& a_mxn, const Tensor& b_kxn) {
  check_rank2(a_mxn, "matmul_nt");
  check_rank2(b_kxn, "matmul_nt");
  const int m = a_mxn.dim(0), n = a_mxn.dim(1), k = b_kxn.dim(0);
  if (b_kxn.dim(1) != n) throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  Tensor c({m, k});
  // C[m, k] = A[m, n] * B[k, n]^T: contraction over n.
  gemm::gemm_nt(m, k, n, a_mxn.data(), n, b_kxn.data(), n, c.data(), k);
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
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = gelu_value(x[i]);
  return y;
}

namespace {

struct CodeRun {
  std::int64_t lo, hi;  ///< float keys, inclusive
  float code;
};

// Appends the runs of one code covering the floats with keys [ka, kb], which
// lie on one side of zero. Over such a range half(v) and gate(v) are both
// nondecreasing and gate(v) >= 0, and rounding a product is monotone in each
// factor, so GELU is bounded by products of the end points: on v >= 0 by
// gelu(a) and gelu(b); on v < 0 by half(a) * gate(b) and half(b) * gate(a).
// The left bound is NaN only for -inf * 0, when every gate in the range is
// 0 and every GELU codes 0. A range whose bounds share a code is one run;
// any other range is split. A single float is always one run.
void cover_codes(std::int64_t ka, std::int64_t kb, float half_step, std::vector<CodeRun>& runs) {
  const float a = key_float(ka), b = key_float(kb);
  const float lo = ka >= 0 ? gelu_value(a) : gelu_half(a) * gelu_gate(b);
  const float hi = ka >= 0 ? gelu_value(b) : gelu_half(b) * gelu_gate(a);
  const float code = ternary_code(lo, half_step);
  if (code == ternary_code(hi, half_step)) {
    if (!runs.empty() && runs.back().code == code && runs.back().hi + 1 == ka)
      runs.back().hi = kb;
    else
      runs.push_back({ka, kb, code});
    return;
  }
  const std::int64_t mid = ka + (kb - ka) / 2;
  cover_codes(ka, mid, half_step, runs);
  cover_codes(mid + 1, kb, half_step, runs);
}

}  // namespace

GeluCodeCuts gelu_code_cuts(float half_step) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  std::vector<CodeRun> runs;
  cover_codes(float_key(-kInf), -1, half_step, runs);
  cover_codes(0, float_key(kInf), half_step, runs);

  GeluCodeCuts cuts{half_step, kNaN, kNaN, kNaN, {kNaN, kNaN, kNaN}, {kNaN, kNaN, kNaN}};
  const CodeRun* one = runs.back().code == 1.0f ? &runs.back() : nullptr;
  const CodeRun* core = nullptr;  // the widest -1 run
  for (const CodeRun& r : runs)
    if (r.code == -1.0f && (core == nullptr || r.hi - r.lo > core->hi - core->lo)) core = &r;
  if (one != nullptr) cuts.one_from = key_float(one->lo);
  if (core != nullptr) {
    cuts.minus_lo = key_float(core->lo);
    cuts.minus_hi = key_float(core->hi);
  }
  // Every run the cut points code wrongly joins an exact window: one left
  // and one right of the -1 core on v < 0, one on v >= 0.
  std::int64_t win_lo[3], win_hi[3];
  bool used[3] = {false, false, false};
  for (const CodeRun& r : runs) {
    const float cut_code = one != nullptr && r.lo >= one->lo
                               ? 1.0f
                               : (core != nullptr && r.lo >= core->lo && r.hi <= core->hi ? -1.0f
                                                                                          : 0.0f);
    if (r.code == cut_code) continue;
    const int w = r.lo >= 0 ? 2 : (core != nullptr && r.lo > core->hi ? 1 : 0);
    win_lo[w] = used[w] ? std::min(win_lo[w], r.lo) : r.lo;
    win_hi[w] = used[w] ? std::max(win_hi[w], r.hi) : r.hi;
    used[w] = true;
  }
  for (int w = 0; w < 3; ++w)
    if (used[w]) {
      cuts.exact_lo[w] = key_float(win_lo[w]);
      cuts.exact_hi[w] = key_float(win_hi[w]);
    }
  return cuts;
}

void gelu_codes_inplace(Tensor& x, const GeluCodeCuts& cuts) {
  const GeluCodeCuts k = cuts;  // a local copy cannot alias x's elements
  const auto cut_code = [&k](float v) {
    const float c = v >= k.one_from ? 1.0f : 0.0f;
    return (v >= k.minus_lo) & (v <= k.minus_hi) ? -1.0f : c;
  };
  const auto in_window = [&k](float v) {
    return ((v >= k.exact_lo[0]) & (v <= k.exact_hi[0])) |
           ((v >= k.exact_lo[1]) & (v <= k.exact_hi[1])) |
           ((v >= k.exact_lo[2]) & (v <= k.exact_hi[2]));
  };
  // Blocks small enough to stay in L1: a vectorized scan finds whether any
  // element falls in a window; only such blocks take the scalar loop.
  constexpr std::size_t kBlock = 256;
  float* p = x.data();
  const std::size_t n = x.size();
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t e = std::min(n, b + kBlock);
    int any = 0;
    for (std::size_t i = b; i < e; ++i) any |= in_window(p[i]);
    if (any == 0) {
      for (std::size_t i = b; i < e; ++i) p[i] = cut_code(p[i]);
    } else {
      for (std::size_t i = b; i < e; ++i)
        p[i] = in_window(p[i]) ? ternary_code(gelu_value(p[i]), k.half_step) : cut_code(p[i]);
    }
  }
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

void softmax_rows(const float* x, int rows, int cols, float* y) {
  for (int r = 0; r < rows; ++r) {
    const float* xrow = x + static_cast<std::size_t>(r) * cols;
    float* row = y + static_cast<std::size_t>(r) * cols;
    float mx = xrow[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xrow[c]);
    float sum = 0.0f;
    for (int c = 0; c < cols; ++c) {
      row[c] = std::exp(xrow[c] - mx);
      sum += row[c];
    }
    for (int c = 0; c < cols; ++c) row[c] /= sum;
  }
}

Tensor softmax_rows(const Tensor& x) {
  check_rank2(x, "softmax_rows");
  const int rows = x.dim(0), cols = x.dim(1);
  Tensor y = Tensor::uninitialized(x.shape());
#pragma omp parallel for schedule(static) if (rows > 16)
  for (int r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * cols;
    softmax_rows(x.data() + off, 1, cols, y.data() + off);
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
