#include "nn/module.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ascend::nn {

namespace {

/// matmul(x, w) for the weight `w` through its frozen matrix and panels:
/// `fw.matrix`, or `w` itself when the slot holds none (a disabled spec).
/// Same bits as matmul.
Tensor packed_matmul(const Tensor& x, const FrozenWeight& fw, const Tensor& w) {
  const Tensor& b = fw.matrix.empty() ? w : fw.matrix;
  const int m = x.dim(0), k = b.dim(0), n = b.dim(1);
  Tensor y({m, n});
  gemm::gemm_nn_packed(m, x.data(), k, fw.panels, b.data(), n, y.data(), n);
  return y;
}

}  // namespace

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  w_.init_shape({in_, out_});
  const float bound = std::sqrt(2.0f / static_cast<float>(in_));
  rng.fill_normal(w_.value, 0.0f, bound);
  if (has_bias_) {
    b_.init_shape({out_});
    b_.no_weight_decay = true;
  }
}

Tensor Linear::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_) throw std::invalid_argument("Linear::forward: bad input");
  cached_xq_ = input_quant_.forward(x);
  const Tensor wq = weight_quant_.forward(w_.value);
  Tensor y = matmul(cached_xq_, wq);
  add_bias(y);
  return y;
}

bool Linear::serves_ternary_codes() const {
  return weight_quant_.ternary() && input_quant_.ternary() && input_quant_.calibrated();
}

Tensor Linear::infer(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != in_) throw std::invalid_argument("Linear::infer: bad input");
  if (serves_ternary_codes()) {
    const float hi = 0.5f * input_quant_.serving_step();
    Tensor xc = Tensor::uninitialized(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) xc[i] = ternary_code(x[i], hi);
    return infer_codes(xc);
  }
  // Weights are immutable while serving: quantize once, serve the frozen weight.
  // A disabled input quantizer is the identity — use x directly instead of
  // paying a whole-tensor copy through LsqQuantizer::infer.
  Tensor xq_store;
  const Tensor* xq = &x;
  if (input_quant_.enabled()) {
    xq_store = input_quant_.infer(x);
    xq = &xq_store;
  }
  Tensor y = packed_matmul(*xq, weight_quant_.frozen_weight(w_.value, /*codes=*/false), w_.value);
  add_bias(y);
  return y;
}

Tensor Linear::infer_codes(const Tensor& codes) const {
  if (codes.rank() != 2 || codes.dim(1) != in_)
    throw std::invalid_argument("Linear::infer_codes: bad input");
  if (!serves_ternary_codes())
    throw std::logic_error("Linear::infer_codes: layer does not serve ternary codes");
  // W2A2: multiply 0/±1 activation codes by the frozen 0/±1 weight codes.
  // Every partial sum is an integer below 2^24, so the GEMM is exact in any
  // order (int8 dot products on the wide tiers, the float GEMM on base),
  // and one multiply by fl(w_step * x_step) gives each output.
  const FrozenWeight& wc = weight_quant_.frozen_weight(w_.value, /*codes=*/true);
  Tensor y;
  if (wc.codes.tier == gemm::kernel()) {
    y = Tensor::uninitialized({codes.dim(0), out_});
    gemm::gemm_codes(codes.dim(0), codes.data(), in_, wc.codes, y.data(), out_);
  } else {
    y = packed_matmul(codes, wc, w_.value);
  }
  const float scale = wc.step * input_quant_.serving_step();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] *= scale;
  add_bias(y);
  return y;
}

void Linear::add_bias(Tensor& y) const {
  if (!has_bias_) return;
  const int n = y.dim(0);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < out_; ++c) y.at(r, c) += b_.value[static_cast<std::size_t>(c)];
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (grad_out.rank() != 2 || grad_out.dim(1) != out_)
    throw std::invalid_argument("Linear::backward: bad grad");
  // dW = Xq^T * G, passed through the weight quantizer's STE.
  const Tensor gw = matmul_tn(cached_xq_, grad_out);
  add_inplace(w_.grad, weight_quant_.backward(gw));
  if (has_bias_) {
    const int n = grad_out.dim(0);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < out_; ++c) b_.grad[static_cast<std::size_t>(c)] += grad_out.at(r, c);
  }
  // dX = G * Wq^T, passed through the input quantizer's STE.
  const Tensor wq = weight_quant_.enabled() ? weight_quant_.forward(w_.value) : w_.value;
  Tensor gx = matmul_nt(grad_out, wq);
  return input_quant_.backward(gx);
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
  weight_quant_.collect_params(out);
  input_quant_.collect_params(out);
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

LayerNorm::LayerNorm(int features, float eps) : features_(features), eps_(eps) {
  gamma_.init_shape({features_});
  beta_.init_shape({features_});
  gamma_.value.fill(1.0f);
  gamma_.no_weight_decay = true;
  beta_.no_weight_decay = true;
}

Tensor LayerNorm::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("LayerNorm::forward: bad input");
  const int rows = x.dim(0);
  cached_xhat_ = Tensor(x.shape());
  cached_invstd_.assign(static_cast<std::size_t>(rows), 0.0f);
  Tensor y(x.shape());
  for (int r = 0; r < rows; ++r) {
    const float* xr = x.data() + static_cast<std::size_t>(r) * features_;
    float mean = 0.0f;
    for (int c = 0; c < features_; ++c) mean += xr[c];
    mean /= static_cast<float>(features_);
    float var = 0.0f;
    for (int c = 0; c < features_; ++c) var += (xr[c] - mean) * (xr[c] - mean);
    var /= static_cast<float>(features_);
    const float inv = 1.0f / std::sqrt(var + eps_);
    cached_invstd_[static_cast<std::size_t>(r)] = inv;
    for (int c = 0; c < features_; ++c) {
      const float xh = (xr[c] - mean) * inv;
      cached_xhat_.at(r, c) = xh;
      y.at(r, c) = xh * gamma_.value[static_cast<std::size_t>(c)] + beta_.value[static_cast<std::size_t>(c)];
    }
  }
  return y;
}

Tensor LayerNorm::infer(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("LayerNorm::infer: bad input");
  const int rows = x.dim(0);
  Tensor y = Tensor::uninitialized(x.shape());
  for (int r = 0; r < rows; ++r) {
    const float* xr = x.data() + static_cast<std::size_t>(r) * features_;
    float mean = 0.0f;
    for (int c = 0; c < features_; ++c) mean += xr[c];
    mean /= static_cast<float>(features_);
    float var = 0.0f;
    for (int c = 0; c < features_; ++c) var += (xr[c] - mean) * (xr[c] - mean);
    var /= static_cast<float>(features_);
    const float inv = 1.0f / std::sqrt(var + eps_);
    for (int c = 0; c < features_; ++c) {
      const float xh = (xr[c] - mean) * inv;
      y.at(r, c) = xh * gamma_.value[static_cast<std::size_t>(c)] + beta_.value[static_cast<std::size_t>(c)];
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, cached_xhat_, "LayerNorm::backward");
  const int rows = grad_out.dim(0);
  Tensor gx(grad_out.shape());
  for (int r = 0; r < rows; ++r) {
    float sum_g = 0.0f, sum_gx = 0.0f;
    for (int c = 0; c < features_; ++c) {
      const float gh = grad_out.at(r, c) * gamma_.value[static_cast<std::size_t>(c)];
      sum_g += gh;
      sum_gx += gh * cached_xhat_.at(r, c);
      gamma_.grad[static_cast<std::size_t>(c)] += grad_out.at(r, c) * cached_xhat_.at(r, c);
      beta_.grad[static_cast<std::size_t>(c)] += grad_out.at(r, c);
    }
    const float inv = cached_invstd_[static_cast<std::size_t>(r)];
    const float nf = static_cast<float>(features_);
    for (int c = 0; c < features_; ++c) {
      const float gh = grad_out.at(r, c) * gamma_.value[static_cast<std::size_t>(c)];
      gx.at(r, c) = inv * (gh - sum_g / nf - cached_xhat_.at(r, c) * sum_gx / nf);
    }
  }
  return gx;
}

void LayerNorm::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ---------------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------------

BatchNorm::BatchNorm(int features, float eps, float momentum)
    : features_(features), eps_(eps), momentum_(momentum) {
  gamma_.init_shape({features_});
  beta_.init_shape({features_});
  gamma_.value.fill(1.0f);
  gamma_.no_weight_decay = true;
  beta_.no_weight_decay = true;
  running_mean_ = Tensor({features_});
  running_var_ = Tensor({features_}, 1.0f);
}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  if (x.rank() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm::forward: bad input");
  if (!training) return infer(x);
  // Training is about to move the running stats (and the optimizer will move
  // gamma/beta next): the frozen scale/shift is stale from here on.
  thaw();
  const int rows = x.dim(0);
  Tensor y(x.shape());
  cached_rows_ = rows;
  cached_xhat_ = Tensor(x.shape());
  cached_invstd_.assign(static_cast<std::size_t>(features_), 0.0f);
  for (int c = 0; c < features_; ++c) {
    float mean = 0.0f;
    for (int r = 0; r < rows; ++r) mean += x.at(r, c);
    mean /= static_cast<float>(rows);
    float var = 0.0f;
    for (int r = 0; r < rows; ++r) var += (x.at(r, c) - mean) * (x.at(r, c) - mean);
    var /= static_cast<float>(rows);
    const float inv = 1.0f / std::sqrt(var + eps_);
    cached_invstd_[static_cast<std::size_t>(c)] = inv;
    running_mean_[static_cast<std::size_t>(c)] =
        (1.0f - momentum_) * running_mean_[static_cast<std::size_t>(c)] + momentum_ * mean;
    running_var_[static_cast<std::size_t>(c)] =
        (1.0f - momentum_) * running_var_[static_cast<std::size_t>(c)] + momentum_ * var;
    for (int r = 0; r < rows; ++r) {
      const float xh = (x.at(r, c) - mean) * inv;
      cached_xhat_.at(r, c) = xh;
      y.at(r, c) = xh * gamma_.value[static_cast<std::size_t>(c)] + beta_.value[static_cast<std::size_t>(c)];
    }
  }
  return y;
}

Tensor BatchNorm::infer(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm::infer: bad input");
  // Serve from the frozen per-channel scale/shift (built on first use).
  const Fold& fold = fold_.get(/*key=*/1, [&] {
    Fold f;
    f.scale.resize(static_cast<std::size_t>(features_));
    f.shift.resize(static_cast<std::size_t>(features_));
    for (int c = 0; c < features_; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const float scale = gamma_.value[ci] / std::sqrt(running_var_[ci] + eps_);
      f.scale[ci] = scale;
      f.shift[ci] = beta_.value[ci] - running_mean_[ci] * scale;
    }
    return f;
  });
  const int rows = x.dim(0);
  const float* scale = fold.scale.data();
  const float* shift = fold.shift.data();
  Tensor y = Tensor::uninitialized(x.shape());
  for (int r = 0; r < rows; ++r) {
    const float* xr = x.data() + static_cast<std::size_t>(r) * features_;
    float* yr = y.data() + static_cast<std::size_t>(r) * features_;
    for (int c = 0; c < features_; ++c) yr[c] = xr[c] * scale[c] + shift[c];
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, cached_xhat_, "BatchNorm::backward");
  const int rows = cached_rows_;
  Tensor gx(grad_out.shape());
  for (int c = 0; c < features_; ++c) {
    float sum_g = 0.0f, sum_gx = 0.0f;
    for (int r = 0; r < rows; ++r) {
      sum_g += grad_out.at(r, c);
      sum_gx += grad_out.at(r, c) * cached_xhat_.at(r, c);
      gamma_.grad[static_cast<std::size_t>(c)] += grad_out.at(r, c) * cached_xhat_.at(r, c);
      beta_.grad[static_cast<std::size_t>(c)] += grad_out.at(r, c);
    }
    const float inv = cached_invstd_[static_cast<std::size_t>(c)];
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float nf = static_cast<float>(rows);
    for (int r = 0; r < rows; ++r) {
      gx.at(r, c) = g * inv *
                    (grad_out.at(r, c) - sum_g / nf - cached_xhat_.at(r, c) * sum_gx / nf);
    }
  }
  return gx;
}

void BatchNorm::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ---------------------------------------------------------------------------
// Gelu
// ---------------------------------------------------------------------------

Tensor Gelu::forward(const Tensor& x) {
  cached_x_ = x;
  return gelu_forward(x);
}

Tensor Gelu::infer(const Tensor& x) const { return gelu_forward(x); }

Tensor Gelu::backward(const Tensor& grad_out) { return gelu_backward(cached_x_, grad_out); }

}  // namespace ascend::nn
