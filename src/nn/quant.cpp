#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/arena.h"

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
    fw.panels = gemm::pack_b(m.dim(0), m.dim(1), m.data(), m.dim(1));
    return fw;
  });
}

const GeluCodeCuts& LsqQuantizer::frozen_gelu_code_cuts() const {
  if (!ternary())
    throw std::logic_error("LsqQuantizer::frozen_gelu_code_cuts: ternary spec required");
  return cuts_.get(/*key=*/1, [&] { return gelu_code_cuts(0.5f * serving_step()); });
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
  float* p = x.data();
  for (std::size_t i = 0; i < x.size(); ++i) p[i] = lsq_level(p[i], s, qn, qp) * s;
  return x;
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
