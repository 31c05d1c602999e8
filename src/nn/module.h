#pragma once
// module.h — network layers with explicit forward/backward passes.
//
// Each layer caches what its backward pass needs during forward. Gradients
// accumulate into Param::grad; the trainer zeroes them between steps.
//
// Every layer also exposes a const, re-entrant `infer` path that reads
// parameters / running statistics but writes no member state, so whole-model
// forwards can run concurrently (the serving runtime depends on this).
// `infer` is bit-exact with the corresponding training-path forward in
// evaluation mode once the model is calibrated (LSQ quantizer steps
// initialised by a prior forward); see LsqQuantizer::infer for the
// uncalibrated fallback.

#include <vector>

#include "nn/frozen_slot.h"
#include "nn/ops.h"
#include "nn/quant.h"
#include "nn/rng.h"
#include "nn/tensor.h"

namespace ascend::nn {

/// Fully connected layer, optionally with LSQ weight/input quantizers
/// (ASCEND's W / A precision knobs).
///
/// Serving-path frozen weight: the weight matrix is immutable while serving,
/// so infer() multiplies the weight quantizer's frozen matrix
/// (LsqQuantizer::frozen_weight) — built lazily on the first infer(),
/// packed once into the GEMM tier's panels so no call re-packs it, and
/// bit-exact with per-call re-quantization. Under a disabled weight spec the
/// fp weight itself is multiplied through its frozen panels. Under ternary
/// weight AND calibrated ternary input specs (the W2A2 serving regime) the
/// frozen matrix is the weight's 0/±1 codes instead: infer() multiplies 0/±1
/// activation codes by them through the same blocked GEMM and scales the
/// exact integer sums by fl(w_step * x_step) — one rounding per output, then
/// the bias add. A caller that can produce the activation codes more cheaply
/// than x (vit::Mlp decides GELU's codes from fc1's output) hands them to
/// infer_codes(), which runs the same GEMM -> scale -> bias tail.
/// The frozen weight is invalidated ("thawed") by any training-path
/// forward()/backward(), by set_weight_quant() (the apply_precision path),
/// and by thaw(); an input spec or calibration change that switches between
/// the dense and the code matrix rebuilds it. Mutating weight() directly
/// outside the training loop requires a manual thaw() before the next infer().
class Linear {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x);             // [N, in] -> [N, out]
  Tensor backward(const Tensor& grad_out);     // returns grad wrt x
  /// Re-entrant serving forward; the weights come from the frozen weight
  /// (see class comment), activations are quantized per call.
  Tensor infer(const Tensor& x) const;
  /// True when infer() serves 0/±1 activation codes: ternary weight and
  /// input specs and a calibrated input quantizer.
  bool serves_ternary_codes() const;
  /// infer() from activation codes already decided, i.e. elementwise
  /// ternary_code(x, s/2) for the input step s; requires
  /// serves_ternary_codes(). Bit-exact with infer(x).
  Tensor infer_codes(const Tensor& codes) const;

  /// Replace the weight-quantizer spec; thaws the frozen weight.
  void set_weight_quant(QuantSpec spec) { weight_quant_.reset_spec(spec); }
  void set_input_quant(QuantSpec spec) { input_quant_.reset_spec(spec); }
  /// Drop the frozen weight; the next infer() rebuilds it from the current
  /// weights. Call after mutating weight() directly.
  void thaw() { weight_quant_.thaw(); }
  void collect_params(std::vector<Param*>& out);

  Param& weight() { return w_; }
  Param& bias() { return b_; }
  LsqQuantizer& weight_quant() { return weight_quant_; }
  LsqQuantizer& input_quant() { return input_quant_; }
  const LsqQuantizer& input_quant() const { return input_quant_; }
  int in_features() const { return in_; }
  int out_features() const { return out_; }

 private:
  int in_, out_;
  bool has_bias_;
  Param w_;  // [in, out]
  Param b_;  // [out]
  LsqQuantizer weight_quant_;
  LsqQuantizer input_quant_;
  Tensor cached_xq_;  // quantized input

  void add_bias(Tensor& y) const;
};

/// LayerNorm over the last dimension of a rank-2 tensor (FP ViT baseline).
class LayerNorm {
 public:
  explicit LayerNorm(int features, float eps = 1e-5f);
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);
  Tensor infer(const Tensor& x) const;
  void collect_params(std::vector<Param*>& out);
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }

 private:
  int features_;
  float eps_;
  Param gamma_, beta_;
  Tensor cached_xhat_;
  std::vector<float> cached_invstd_;
};

/// BatchNorm over the first dimension of a rank-2 tensor (ASCEND replaces
/// LN with BN for SC-friendliness; tokens and batch are flattened together).
///
/// Eval-mode snapshot: running stats and gamma/beta are immutable while
/// serving, so infer() folds them once into per-channel scale/shift
/// (scale_c = gamma_c / sqrt(var_c + eps), shift_c = beta_c - mean_c *
/// scale_c) and evaluates y = x * scale + shift — one multiply-add per
/// element instead of a sqrt/divide chain. The fold is a FrozenSlot: built
/// lazily on the first infer() (concurrent first infers are safe) and thawed
/// by any training-path forward(x, true).
/// Mutating gamma()/beta()/running stats by other means (an optimizer step,
/// copy_weights_from) requires a manual thaw() before the next infer() — in
/// the training loop this holds automatically because every optimizer step
/// is preceded by a training forward.
class BatchNorm {
 public:
  explicit BatchNorm(int features, float eps = 1e-5f, float momentum = 0.1f);
  Tensor forward(const Tensor& x, bool training);
  Tensor backward(const Tensor& grad_out);
  Tensor infer(const Tensor& x) const;  ///< eval-mode normalisation off running stats
  /// Drop the frozen scale/shift; the next infer() rebuilds it.
  void thaw() { fold_.thaw(); }
  /// True while the scale/shift is frozen (exposed for tests/benches).
  bool frozen() const { return fold_.key() != FrozenSlot<Fold>::kThawed; }
  void collect_params(std::vector<Param*>& out);
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  int features_;
  float eps_, momentum_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  Tensor cached_xhat_;
  std::vector<float> cached_invstd_;
  int cached_rows_ = 0;
  // Frozen per-channel scale/shift (see class comment).
  struct Fold {
    std::vector<float> scale, shift;
  };
  FrozenSlot<Fold> fold_;
};

/// Elementwise GELU layer.
class Gelu {
 public:
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);
  Tensor infer(const Tensor& x) const;

 private:
  Tensor cached_x_;
};

}  // namespace ascend::nn
