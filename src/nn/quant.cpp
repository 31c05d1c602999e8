#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "runtime/arena.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ASCEND_QUANT_X86 1
#endif

namespace ascend::nn {

void Param::init_shape(std::vector<int> shape) {
  value = Tensor(shape);
  grad = Tensor(shape);
  adam_m = Tensor(shape);
  adam_v = Tensor(std::move(shape));
}

void Param::zero_grad() { grad.fill(0.0f); }

QuantSpec QuantSpec::from_bsl(int bsl) {
  if (bsl < 2 || bsl % 2 != 0)
    throw std::invalid_argument("QuantSpec::from_bsl: BSL must be even >= 2");
  QuantSpec s;
  s.enabled = true;
  s.qn = -bsl / 2;
  s.qp = bsl / 2;
  return s;
}

void LsqQuantizer::reset_spec(QuantSpec spec) {
  spec_ = spec;
  initialized_ = false;
  thaw();
}

namespace {

// clamp(round(x / s), qn, qp) — the LSQ level of x — without a branch.
// round() and clamp() branch on magnitude, and activations a few steps
// from zero mispredict those branches; this form compiles to straight-line
// SSE2 that gcc vectorizes, and returns the same bits for every input:
// - v is clamped to [qn-1, qp+1] before the float->int conversion, so the
//   conversion is always defined; std::max(qn-1, v) sends NaN to qn-1;
// - t = trunc(c), and |c - t| >= 0.5 rounds half away from zero;
// - copysign(·, v) keeps round's sign, so -0.3 gives -0 like round();
// - the final clamp is std::clamp's own comparison order, which keeps -0
//   when qn == 0;
// - a NaN quotient passes through, as it does through round and clamp.
inline float lsq_level(float x, float s, float qn, float qp) {
  const float v = x / s;
  const float c = std::min(qp + 1.0f, std::max(qn - 1.0f, v));
  const float t = static_cast<float>(static_cast<int>(c));
  const float r = std::copysign(std::fabs(t) + (std::fabs(c - t) >= 0.5f ? 1.0f : 0.0f), v);
  const float q = r < qn ? qn : (qp < r ? qp : r);
  return std::isnan(v) ? v : q;
}

// p[i] = lsq_level(a[i] + p[i], s, qn, qp) * s, or of p[i] alone when `a`
// is null: the requantize of LsqQuantizer::infer and infer_add. The wide
// tiers below run lsq_level's operations lane for lane (the same clamp
// operand order, truncation, half-away rounding, sign copy, final clamp and
// NaN pass-through), so every tier gives the same bits.
void requantize_base(const float* a, float* p, std::size_t n, float s, float qn, float qp) {
  if (a != nullptr)
    for (std::size_t i = 0; i < n; ++i) p[i] = lsq_level(a[i] + p[i], s, qn, qp) * s;
  else
    for (std::size_t i = 0; i < n; ++i) p[i] = lsq_level(p[i], s, qn, qp) * s;
}

#ifdef ASCEND_QUANT_X86

__attribute__((target("avx2"))) void requantize_avx2(const float* a, float* p, std::size_t n,
                                                     float s, float qn, float qp) {
  const __m256 sv = _mm256_set1_ps(s), qnv = _mm256_set1_ps(qn), qpv = _mm256_set1_ps(qp);
  const __m256 lo = _mm256_set1_ps(qn - 1.0f), hi = _mm256_set1_ps(qp + 1.0f);
  const __m256 half = _mm256_set1_ps(0.5f), one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(p + i);
    if (a != nullptr) x = _mm256_add_ps(_mm256_loadu_ps(a + i), x);
    const __m256 v = _mm256_div_ps(x, sv);
    // max/min return their second operand on NaN and on ties, as
    // std::max(lo, v) and std::min(hi, c) do.
    const __m256 c = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
    const __m256 t = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(c));
    const __m256 up = _mm256_and_ps(
        _mm256_cmp_ps(_mm256_andnot_ps(sign, _mm256_sub_ps(c, t)), half, _CMP_GE_OQ), one);
    const __m256 r =
        _mm256_or_ps(_mm256_add_ps(_mm256_andnot_ps(sign, t), up), _mm256_and_ps(sign, v));
    __m256 q = _mm256_blendv_ps(r, qpv, _mm256_cmp_ps(qpv, r, _CMP_LT_OQ));
    q = _mm256_blendv_ps(q, qnv, _mm256_cmp_ps(r, qnv, _CMP_LT_OQ));
    q = _mm256_blendv_ps(q, v, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    _mm256_storeu_ps(p + i, _mm256_mul_ps(q, sv));
  }
  requantize_base(a != nullptr ? a + i : nullptr, p + i, n - i, s, qn, qp);
}

// gcc 12 reports the `__Y = __Y` placeholder inside the unmasked AVX-512
// intrinsics as maybe-uninitialized; the placeholder is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void requantize_avx512(const float* a, float* p,
                                                          std::size_t n, float s, float qn,
                                                          float qp) {
  const __m512 sv = _mm512_set1_ps(s), qnv = _mm512_set1_ps(qn), qpv = _mm512_set1_ps(qp);
  const __m512 lo = _mm512_set1_ps(qn - 1.0f), hi = _mm512_set1_ps(qp + 1.0f);
  const __m512 half = _mm512_set1_ps(0.5f), one = _mm512_set1_ps(1.0f);
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff), sign = _mm512_set1_epi32(INT32_MIN);
  for (std::size_t i = 0; i < n; i += 16) {
    // Masked lanes past the end are neither read nor written.
    const __mmask16 live =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF) : static_cast<__mmask16>((1u << (n - i)) - 1u);
    __m512 x = _mm512_maskz_loadu_ps(live, p + i);
    if (a != nullptr) x = _mm512_add_ps(_mm512_maskz_loadu_ps(live, a + i), x);
    const __m512 v = _mm512_div_ps(x, sv);
    const __m512 c = _mm512_min_ps(_mm512_max_ps(v, lo), hi);
    const __m512 t = _mm512_cvtepi32_ps(_mm512_cvttps_epi32(c));
    const __m512 abs_t = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(t), abs_mask));
    const __m512 frac =
        _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(_mm512_sub_ps(c, t)), abs_mask));
    const __m512 mag =
        _mm512_mask_add_ps(abs_t, _mm512_cmp_ps_mask(frac, half, _CMP_GE_OQ), abs_t, one);
    const __m512 r = _mm512_castsi512_ps(_mm512_or_si512(
        _mm512_castps_si512(mag), _mm512_and_si512(_mm512_castps_si512(v), sign)));
    __m512 q = _mm512_mask_mov_ps(r, _mm512_cmp_ps_mask(qpv, r, _CMP_LT_OQ), qpv);
    q = _mm512_mask_mov_ps(q, _mm512_cmp_ps_mask(r, qnv, _CMP_LT_OQ), qnv);
    q = _mm512_mask_mov_ps(q, _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q), v);
    _mm512_mask_storeu_ps(p + i, live, _mm512_mul_ps(q, sv));
  }
}
#pragma GCC diagnostic pop

#endif  // ASCEND_QUANT_X86

void requantize(const float* a, float* p, std::size_t n, float s, float qn, float qp) {
#ifdef ASCEND_QUANT_X86
  switch (gemm::kernel()) {
    case gemm::Kernel::kAvx512:
      return requantize_avx512(a, p, n, s, qn, qp);
    case gemm::Kernel::kAvx2:
      return requantize_avx2(a, p, n, s, qn, qp);
    default:
      break;
  }
#endif
  requantize_base(a, p, n, s, qn, qp);
}

// LSQ init: s = 2 * mean|x| / sqrt(Qp).
float lsq_init_step(const Tensor& x, int qp) {
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) mean_abs += std::fabs(x[i]);
  mean_abs /= std::max<std::size_t>(x.size(), 1);
  return std::max(1e-4f, static_cast<float>(2.0 * mean_abs / std::sqrt(qp)));
}

}  // namespace

const FrozenWeight& LsqQuantizer::frozen_weight(const Tensor& x, bool codes) const {
  return weight_.get(weight_key(codes), [&] {
    if (codes && !ternary())
      throw std::logic_error("LsqQuantizer::frozen_weight: codes need a ternary spec");
    if (x.rank() != 2 || x.dim(0) <= 0 || x.dim(1) <= 0)
      throw std::invalid_argument("LsqQuantizer::frozen_weight: non-empty rank-2 tensor required");
    // The matrix outlives every forward: force it onto the heap even when
    // the caller is running inside an activation-arena scope.
    runtime::HeapScope heap;
    FrozenWeight fw;
    if (codes) {
      fw.step = std::max(initialized_ ? step_.value[0] : lsq_init_step(x, spec_.qp), 1e-6f);
      fw.matrix = Tensor::uninitialized(x.shape());
      const float* px = x.data();
      float* pl = fw.matrix.data();
      for (std::size_t i = 0; i < x.size(); ++i) pl[i] = lsq_level(px[i], fw.step, -1.0f, 1.0f);
    } else if (spec_.enabled) {
      fw.matrix = infer(x);
    }
    const Tensor& m = fw.matrix.empty() ? x : fw.matrix;
    if (codes) fw.codes = gemm::pack_codes(m.dim(0), m.dim(1), m.data(), m.dim(1));
    if (fw.codes.tier == gemm::Kernel::kAuto)
      fw.panels = gemm::pack_b(m.dim(0), m.dim(1), m.data(), m.dim(1));
    return fw;
  });
}

const GeluCodeCuts& LsqQuantizer::frozen_gelu_code_cuts() const {
  if (!ternary())
    throw std::logic_error("LsqQuantizer::frozen_gelu_code_cuts: ternary spec required");
  return cuts_.get(/*key=*/1, [&] { return GeluCodes{gelu_code_cuts(0.5f * serving_step()), {}}; })
      .cuts;
}

const CountTable& LsqQuantizer::frozen_code_table(const CountTable& gelu) const {
  if (!ternary())
    throw std::logic_error("LsqQuantizer::frozen_code_table: ternary spec required");
  if (gelu.id() == 0) throw std::invalid_argument("LsqQuantizer::frozen_code_table: empty table");
  // Table ids start at 2, clear of the erf cuts' key.
  return cuts_.get(gelu.id(), [&] {
    GeluCodes codes;
    codes.table = gelu.ternary_codes(0.5f * serving_step());
    return codes;
  }).table;
}

Tensor LsqQuantizer::forward(const Tensor& x) {
  // Training is about to move the step / the quantized tensor: the frozen
  // slots are stale from here on. The weight slot holds panels under a
  // disabled spec too (the weights themselves move).
  thaw();
  if (!spec_.enabled) return x;
  if (!initialized_) {
    step_.init_shape({1});
    step_.value[0] = lsq_init_step(x, spec_.qp);
    step_.no_weight_decay = true;
    initialized_ = true;
  }
  const float s = std::max(step_.value[0], 1e-6f);
  const float qn = static_cast<float>(spec_.qn), qp = static_cast<float>(spec_.qp);
  cached_x_ = x;
  cached_q_ = Tensor(x.shape());
  Tensor out(x.shape());
  const float* px = x.data();
  float* pq = cached_q_.data();
  float* po = out.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float q = lsq_level(px[i], s, qn, qp);
    pq[i] = q;
    po[i] = q * s;
  }
  return out;
}

Tensor LsqQuantizer::infer(Tensor x) const {
  if (!spec_.enabled) return x;
  const float step = initialized_ ? step_.value[0] : lsq_init_step(x, spec_.qp);
  const float s = std::max(step, 1e-6f);
  const float qn = static_cast<float>(spec_.qn), qp = static_cast<float>(spec_.qp);
  if (x.borrowed()) x = Tensor(x);  // a moved-in read-only view: own a copy
  requantize(nullptr, x.data(), x.size(), s, qn, qp);
  return x;
}

Tensor LsqQuantizer::infer_add(const Tensor& a, Tensor b) const {
  check_same_shape(a, b, "LsqQuantizer::infer_add");
  if (b.borrowed()) b = Tensor(b);  // a moved-in read-only view: own a copy
  float* p = b.data();
  if (!spec_.enabled || !initialized_) {
    // The identity, or an init step that needs the whole sum first.
    for (std::size_t i = 0; i < b.size(); ++i) p[i] = a[i] + p[i];
    return infer(std::move(b));
  }
  const float s = std::max(step_.value[0], 1e-6f);
  requantize(a.data(), p, b.size(), s, static_cast<float>(spec_.qn), static_cast<float>(spec_.qp));
  return b;
}

Tensor LsqQuantizer::backward(const Tensor& grad_out) {
  if (!spec_.enabled) return grad_out;
  check_same_shape(grad_out, cached_x_, "LsqQuantizer::backward");
  const float s = std::max(step_.value[0], 1e-6f);
  const float gradscale =
      1.0f / std::sqrt(static_cast<float>(cached_x_.size()) * static_cast<float>(spec_.qp));
  Tensor gx(grad_out.shape());
  double gs = 0.0;
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    const float xs = cached_x_[i] / s;
    const bool inside = xs > static_cast<float>(spec_.qn) && xs < static_cast<float>(spec_.qp);
    gx[i] = inside ? grad_out[i] : 0.0f;
    const float ds = cached_q_[i] - (inside ? xs : 0.0f);
    gs += static_cast<double>(grad_out[i]) * ds;
  }
  step_.grad[0] += static_cast<float>(gs) * gradscale;
  return gx;
}

void LsqQuantizer::collect_params(std::vector<Param*>& out) {
  if (spec_.enabled && initialized_) out.push_back(&step_);
}

void LsqQuantizer::restore_calibration(QuantSpec spec, bool calibrated, float step) {
  spec_ = spec;
  thaw();
  if (calibrated) {
    step_.init_shape({1});
    step_.value[0] = step;
    step_.no_weight_decay = true;
    initialized_ = true;
  } else {
    initialized_ = false;
  }
}

}  // namespace ascend::nn
