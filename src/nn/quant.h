#pragma once
// quant.h — Learned Step-size Quantization (LSQ, [25]) with STE backward.
//
// ASCEND quantizes weights and activations to 2-bit-BSL thermometer numbers
// (3 levels: -1, 0, +1 times a learned step) and residuals to 16-bit BSL
// (17 levels). An n-bit *BSL* in the deterministic thermometer format
// represents n+1 values — note this differs from binary n-bit quantization —
// so the quantizer's integer range for BSL b is [-b/2, +b/2].
//
// Forward:  v = clamp(round(x/s), Qn, Qp) * s
// Backward: dL/dx = dL/dv inside the clip range, 0 outside (STE);
//           dL/ds = sum g * (q - x/s * inside) * gradscale,
//           gradscale = 1/sqrt(numel * Qp).

#include <algorithm>
#include <vector>

#include "nn/count_table.h"
#include "nn/frozen_slot.h"
#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace ascend::nn {

/// The matrix Linear::infer multiplies, frozen by LsqQuantizer::frozen_weight:
/// the quantized weight, or its 0/±1 integer levels with their clamped step
/// (the quantized weight is matrix * step). A GEMM over the levels sums
/// exact integers (every partial sum is below 2^24), which is what lets
/// Linear::infer serve W2A2 layers through the dense blocked kernels, or
/// through int8 dot products on the wide tiers. `panels` packs the matrix
/// for the active GEMM tier; for the levels on a wide tier `codes` packs
/// them as int8 instead (gemm::pack_codes) and `panels` stays empty, unless
/// a NaN weight left a NaN level.
struct FrozenWeight {
  Tensor matrix;  ///< empty under a disabled spec: the weight itself is multiplied
  float step = 0.0f;  ///< the levels' step; 0 for the quantized weight
  gemm::PackedB panels;
  gemm::PackedCodes codes;
};

/// Learnable parameter with gradient and AdamW state.
struct Param {
  Tensor value;
  Tensor grad;
  Tensor adam_m;
  Tensor adam_v;
  bool no_weight_decay = false;

  void init_shape(std::vector<int> shape);
  void zero_grad();
};

/// How a GELU's output becomes a ternary quantizer's input codes, frozen in
/// the quantizer's second slot: the erf GELU's cut points, or a count-table
/// GELU composed with the code thresholds (one count -> code table).
struct GeluCodes {
  GeluCodeCuts cuts{};
  CountTable table;
};

struct QuantSpec {
  bool enabled = false;
  int qn = 0;  ///< most negative integer level
  int qp = 0;  ///< most positive integer level

  /// Quantizer for a thermometer bitstream length `bsl` (levels -b/2..+b/2).
  static QuantSpec from_bsl(int bsl);
  static QuantSpec ternary() { return from_bsl(2); }
  static QuantSpec off() { return QuantSpec{}; }
  int levels() const { return qp - qn + 1; }
};

class LsqQuantizer {
 public:
  explicit LsqQuantizer(QuantSpec spec = QuantSpec::off()) : spec_(spec) {}

  const QuantSpec& spec() const { return spec_; }
  bool enabled() const { return spec_.enabled; }
  /// True under the ternary spec (levels -1, 0, +1), the one the code paths serve.
  bool ternary() const { return spec_.enabled && spec_.qn == -1 && spec_.qp == 1; }
  /// Replace the spec (used when progressively tightening precision); the
  /// learned step is re-initialised on the next forward. Thaws the frozen
  /// slots, so a later frozen_weight re-quantizes under the new spec.
  void reset_spec(QuantSpec spec);

  /// Fake-quantized output; identity when disabled. Training path: caches
  /// activations for backward() and thaws the frozen slots (training is
  /// about to change the step / the tensor being quantized).
  Tensor forward(const Tensor& x);
  /// STE backward; accumulates the step-size gradient.
  Tensor backward(const Tensor& grad_out);

  /// Re-entrant inference forward: reads the trained step but writes no
  /// member state, so concurrent calls are safe. Bit-exact with forward()
  /// once the step is initialised. On an uncalibrated quantizer (enabled but
  /// never trained) the const path cannot latch a step, so the LSQ init step
  /// is derived from the batch itself on every call. Quantizes `x` in place
  /// and returns it, so a caller that moves its tensor in pays no copy, and
  /// a disabled quantizer hands the moved input straight back.
  Tensor infer(Tensor x) const;
  /// infer(nn::add(a, b)) bit for bit, with the add fused into the
  /// quantizer's pass over b's storage (the residual requantize of an
  /// encoder block). Throws std::invalid_argument on a shape mismatch.
  Tensor infer_add(const Tensor& a, Tensor b) const;

  /// The frozen matrix Linear::infer multiplies for the *immutable while
  /// serving* rank-2 weight `x`: the levels of `x` with their step when
  /// `codes` (ternary spec only), else infer(x), or no matrix of its own
  /// under a disabled spec (the caller multiplies `x`); plus its panels for
  /// the active GEMM tier. Built on the first call, bit-exact with per-call
  /// quantization since it IS that quantization done once, and served from
  /// the weight slot afterwards (see FrozenSlot for the thread safety). The
  /// slot is keyed by (codes, GEMM tier): asking for the other matrix, or
  /// after gemm::set_kernel changed the tier, rebuilds it. The panels are
  /// heap-owned even when `x` is a borrowed view (an mmap'd checkpoint).
  ///
  /// Thaw contract: thaw(), reset_spec(), restore_calibration() and the
  /// training-path forward() drop both slots. Mutating the underlying tensor
  /// by other means (an optimizer stepping the weights directly) requires a
  /// manual thaw() before the next frozen_weight — in the training loop this
  /// holds automatically because every optimizer step is preceded by a
  /// training forward. Throws std::logic_error for codes under a non-ternary
  /// spec and std::invalid_argument for an empty or non-rank-2 `x`.
  const FrozenWeight& frozen_weight(const Tensor& x, bool codes) const;
  /// True while the weight slot holds the codes (`codes`) or the dense
  /// matrix packed for the active GEMM tier, i.e. frozen_weight(x, codes)
  /// would not rebuild (exposed for tests/benches).
  bool frozen(bool codes) const { return weight_.key() == weight_key(codes); }

  /// Where GELU's output codes under this ternary quantizer change (see
  /// nn::gelu_code_cuts) at half of serving_step(), the threshold Linear's
  /// W2A2 input codes use. Built once per step in the quantizer's second
  /// slot, thawed with the weight slot. Throws on a non-ternary spec.
  const GeluCodeCuts& frozen_gelu_code_cuts() const;
  /// `gelu` followed by this quantizer's ternary codes at half of
  /// serving_step(): gelu.ternary_codes(0.5f * serving_step()), built in the
  /// same slot as the cuts, keyed by gelu.id(). Asking for the erf cuts or
  /// for another table (a hook change) rebuilds it, and so does any thaw (a
  /// calibration change). Throws on a non-ternary spec.
  const CountTable& frozen_code_table(const CountTable& gelu) const;
  /// True while the slot holds the erf GELU's cuts or a composed code table.
  bool cuts_frozen() const { return cuts_.key() != FrozenSlot<GeluCodes>::kThawed; }

  /// Drop both frozen slots; the next frozen_* call rebuilds.
  void thaw() {
    weight_.thaw();
    cuts_.thaw();
  }

  float step() const { return step_.value.empty() ? 0.0f : step_.value[0]; }
  /// step() floored at 1e-6: the step the ternary code paths threshold at
  /// (Linear's W2A2 input codes, frozen_gelu_code_cuts, frozen_code_table).
  float serving_step() const { return std::max(step(), 1e-6f); }
  /// True once a training forward has initialised the step under the current
  /// spec (reset_spec de-calibrates; step() may still return the old value).
  bool calibrated() const { return initialized_; }
  void collect_params(std::vector<Param*>& out);

  /// Restore deserialized calibration state (see serialize/model_io.h):
  /// installs `spec` and, when `calibrated`, the learned step — equivalent to
  /// the state after reset_spec(spec) plus a training forward that latched
  /// `step`. Thaws the frozen slots, like every other spec change.
  void restore_calibration(QuantSpec spec, bool calibrated, float step);

 private:
  QuantSpec spec_;
  Param step_;
  bool initialized_ = false;
  // Caches from the last forward.
  Tensor cached_x_;
  Tensor cached_q_;  // integer levels as floats
  // Copies and moves carry the spec and the learned step; the slots start
  // thawed in the destination and rebuild from its own state.
  FrozenSlot<FrozenWeight> weight_;
  FrozenSlot<GeluCodes> cuts_;

  /// weight_'s key: the GEMM tier (never kAuto) and which matrix.
  static unsigned weight_key(bool codes) {
    return 2 * static_cast<unsigned>(gemm::kernel()) + (codes ? 1 : 0);
  }
};

}  // namespace ascend::nn
