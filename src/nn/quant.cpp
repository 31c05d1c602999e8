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

LsqQuantizer::LsqQuantizer(const LsqQuantizer& other)
    : spec_(other.spec_),
      step_(other.step_),
      initialized_(other.initialized_),
      cached_x_(other.cached_x_),
      cached_q_(other.cached_q_) {}

LsqQuantizer& LsqQuantizer::operator=(const LsqQuantizer& other) {
  if (this == &other) return *this;
  spec_ = other.spec_;
  step_ = other.step_;
  initialized_ = other.initialized_;
  cached_x_ = other.cached_x_;
  cached_q_ = other.cached_q_;
  thaw();
  return *this;
}

LsqQuantizer::LsqQuantizer(LsqQuantizer&& other) noexcept
    : spec_(other.spec_),
      step_(std::move(other.step_)),
      initialized_(other.initialized_),
      cached_x_(std::move(other.cached_x_)),
      cached_q_(std::move(other.cached_q_)) {}

LsqQuantizer& LsqQuantizer::operator=(LsqQuantizer&& other) noexcept {
  if (this == &other) return *this;
  spec_ = other.spec_;
  step_ = std::move(other.step_);
  initialized_ = other.initialized_;
  cached_x_ = std::move(other.cached_x_);
  cached_q_ = std::move(other.cached_q_);
  thaw();
  return *this;
}

void LsqQuantizer::reset_spec(QuantSpec spec) {
  spec_ = spec;
  initialized_ = false;
  thaw();
}

void LsqQuantizer::thaw() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  snap_valid_.store(false, std::memory_order_release);
  snapshot_ = Tensor();
  codes_valid_.store(false, std::memory_order_release);
  codes_ = TernaryCodes();
  cuts_valid_.store(false, std::memory_order_release);
  for (FrozenPanels* fp : {&dense_panels_, &code_panels_}) {
    fp->tier.store(gemm::Kernel::kAuto, std::memory_order_release);
    fp->packed = gemm::PackedB();
  }
}

const Tensor& LsqQuantizer::frozen_infer(const Tensor& x) const {
  if (!spec_.enabled) return x;
  if (snap_valid_.load(std::memory_order_acquire)) return snapshot_;
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (!snap_valid_.load(std::memory_order_relaxed)) {
    // The snapshot outlives every forward: force it onto the heap even when
    // the caller is running inside an activation-arena scope.
    runtime::HeapScope heap;
    snapshot_ = infer(x);
    snap_valid_.store(true, std::memory_order_release);
  }
  return snapshot_;
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

const TernaryCodes& LsqQuantizer::frozen_ternary_codes(const Tensor& x) const {
  if (!spec_.enabled || spec_.qn != -1 || spec_.qp != 1)
    throw std::logic_error("LsqQuantizer::frozen_ternary_codes: ternary spec required");
  if (x.rank() != 2 || x.dim(0) <= 0 || x.dim(1) <= 0)
    throw std::invalid_argument(
        "LsqQuantizer::frozen_ternary_codes: non-empty rank-2 tensor required");
  if (codes_valid_.load(std::memory_order_acquire)) return codes_;
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (!codes_valid_.load(std::memory_order_relaxed)) {
    // Outlives every forward, like the dense snapshot.
    runtime::HeapScope heap;
    const float step = initialized_ ? step_.value[0] : lsq_init_step(x, spec_.qp);
    const float s = std::max(step, 1e-6f);
    TernaryCodes tc;
    tc.step = s;
    tc.levels = Tensor::uninitialized(x.shape());
    const float* px = x.data();
    float* pl = tc.levels.data();
    const float qn = static_cast<float>(spec_.qn), qp = static_cast<float>(spec_.qp);
    for (std::size_t i = 0; i < x.size(); ++i) pl[i] = lsq_level(px[i], s, qn, qp);
    codes_ = std::move(tc);
    codes_valid_.store(true, std::memory_order_release);
  }
  return codes_;
}

const gemm::PackedB& LsqQuantizer::frozen_panels(const Tensor& x, bool codes) const {
  FrozenPanels& fp = panels(codes);
  const gemm::Kernel tier = gemm::kernel();
  if (fp.tier.load(std::memory_order_acquire) == tier) return fp.packed;
  // Resolve the source before taking the lock: its own build locks too.
  const Tensor& src = codes ? frozen_ternary_codes(x).levels : frozen_infer(x);
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (fp.tier.load(std::memory_order_relaxed) != tier) {
    fp.packed = gemm::pack_b(src.dim(0), src.dim(1), src.data(), src.dim(1));
    fp.tier.store(tier, std::memory_order_release);
  }
  return fp.packed;
}

const GeluCodeCuts& LsqQuantizer::frozen_gelu_code_cuts() const {
  if (!spec_.enabled || spec_.qn != -1 || spec_.qp != 1)
    throw std::logic_error("LsqQuantizer::frozen_gelu_code_cuts: ternary spec required");
  if (cuts_valid_.load(std::memory_order_acquire)) return cuts_;
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (!cuts_valid_.load(std::memory_order_relaxed)) {
    cuts_ = gelu_code_cuts(0.5f * serving_step());
    cuts_valid_.store(true, std::memory_order_release);
  }
  return cuts_;
}

Tensor LsqQuantizer::forward(const Tensor& x) {
  // Training is about to move the step / the quantized tensor: any frozen
  // serving snapshot (dense, codes, cuts or panels) is stale from here on.
  // Panels exist under a disabled spec too (the weights themselves move).
  if (snap_valid_.load(std::memory_order_relaxed) ||
      codes_valid_.load(std::memory_order_relaxed) ||
      cuts_valid_.load(std::memory_order_relaxed) || panels_frozen(false) || panels_frozen(true))
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
