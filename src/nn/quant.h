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
#include <atomic>
#include <mutex>
#include <vector>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace ascend::nn {

/// Integer-level form of a ternary-quantized rank-2 tensor: `levels` holds
/// clamp(round(x / step), -1, +1) as 0/±1 floats and `step` the clamped
/// step, so the quantized tensor is levels * step. A GEMM over such levels
/// sums exact integers (every partial sum is below 2^24), which is what lets
/// Linear::infer serve W2A2 layers through the dense blocked kernels.
struct TernaryCodes {
  Tensor levels;
  float step = 0.0f;
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

  /// Copies and moves carry the spec / learned step but deliberately drop the
  /// frozen snapshot (it is rebuilt lazily on the copy's first frozen_infer;
  /// sharing mutable snapshot state between copies would be a data race).
  LsqQuantizer(const LsqQuantizer& other);
  LsqQuantizer& operator=(const LsqQuantizer& other);
  LsqQuantizer(LsqQuantizer&& other) noexcept;
  LsqQuantizer& operator=(LsqQuantizer&& other) noexcept;

  const QuantSpec& spec() const { return spec_; }
  bool enabled() const { return spec_.enabled; }
  /// Replace the spec (used when progressively tightening precision); the
  /// learned step is re-initialised on the next forward. Thaws any frozen
  /// snapshot, so a later frozen_infer re-quantizes under the new spec.
  void reset_spec(QuantSpec spec);

  /// Fake-quantized output; identity when disabled. Training path: caches
  /// activations for backward() and thaws any frozen snapshot (training is
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

  /// Serving fast path for an *immutable-while-serving* input (a weight
  /// matrix): quantizes `x` once, memoizes the result ("freeze"), and serves
  /// the memoized tensor on every later call — bit-exact with infer(x), since
  /// it IS infer(x) computed once. Thread-safe against concurrent
  /// frozen_infer calls (double-checked build under an internal mutex).
  ///
  /// Invalidation ("thaw") contract: the snapshot is dropped by thaw(),
  /// reset_spec() and the training-path forward(). Mutating the underlying
  /// tensor by other means (an optimizer stepping the weights directly)
  /// requires a manual thaw() before the next frozen_infer — in the training
  /// loop this holds automatically because every optimizer step is preceded
  /// by a training forward. thaw() and training must not run concurrently
  /// with frozen_infer (same single-writer contract as the whole const infer
  /// path). When the spec is disabled, returns `x` unchanged.
  const Tensor& frozen_infer(const Tensor& x) const;

  /// Integer-level sibling of frozen_infer for a rank-2 weight matrix under
  /// a ternary spec (qn == -1, qp == +1): quantizes `x` once into
  /// TernaryCodes and serves that snapshot on every later call. Same
  /// invalidation contract and double-checked-build thread safety as
  /// frozen_infer; the dense and code snapshots are independent (building
  /// one does not build the other) but are thawed together. Throws on a
  /// non-ternary spec or a non-rank-2 input.
  const TernaryCodes& frozen_ternary_codes(const Tensor& x) const;

  /// Where GELU's output codes under this ternary quantizer change (see
  /// nn::gelu_code_cuts) at half of serving_step(), the threshold Linear's
  /// W2A2 input codes use. Computed once per step and served from a
  /// snapshot with the same double-checked build and the same thaw events
  /// as frozen_ternary_codes. Throws on a non-ternary spec.
  const GeluCodeCuts& frozen_gelu_code_cuts() const;

  /// The matrix Linear::infer multiplies, packed once into the active GEMM
  /// tier's panels (gemm::pack_b): the levels of frozen_ternary_codes(x)
  /// when `codes`, else frozen_infer(x), which is `x` itself under a
  /// disabled spec, so full-precision weights get a snapshot too. Same
  /// double-checked build and thaw events as the other snapshots, plus a
  /// training forward under a disabled spec; rebuilt when gemm::set_kernel
  /// has changed the tier since packing. The panels are heap-owned even
  /// when `x` is a borrowed view (an mmap'd checkpoint).
  const gemm::PackedB& frozen_panels(const Tensor& x, bool codes) const;

  /// Drop the frozen snapshots (dense, codes, GELU code cuts and panels);
  /// the next frozen_* call rebuilds.
  void thaw();
  /// True while a frozen snapshot is live (exposed for tests/benches).
  bool frozen() const { return snap_valid_.load(std::memory_order_acquire); }
  /// True while a ternary-code snapshot is live.
  bool codes_frozen() const { return codes_valid_.load(std::memory_order_acquire); }
  /// True while a GELU code-cut snapshot is live.
  bool cuts_frozen() const { return cuts_valid_.load(std::memory_order_acquire); }
  /// True while panels of the dense (`codes` false) or code matrix are live.
  bool panels_frozen(bool codes) const {
    return panels(codes).tier.load(std::memory_order_acquire) != gemm::Kernel::kAuto;
  }

  float step() const { return step_.value.empty() ? 0.0f : step_.value[0]; }
  /// step() floored at 1e-6: the step the ternary code paths threshold at
  /// (Linear's W2A2 input codes, frozen_gelu_code_cuts).
  float serving_step() const { return std::max(step(), 1e-6f); }
  /// True once a training forward has initialised the step under the current
  /// spec (reset_spec de-calibrates; step() may still return the old value).
  bool calibrated() const { return initialized_; }
  void collect_params(std::vector<Param*>& out);

  /// Restore deserialized calibration state (see serialize/model_io.h):
  /// installs `spec` and, when `calibrated`, the learned step — equivalent to
  /// the state after reset_spec(spec) plus a training forward that latched
  /// `step`. Thaws any frozen snapshot, like every other spec change.
  void restore_calibration(QuantSpec spec, bool calibrated, float step);

 private:
  QuantSpec spec_;
  Param step_;
  bool initialized_ = false;
  // Caches from the last forward.
  Tensor cached_x_;
  Tensor cached_q_;  // integer levels as floats
  // Frozen snapshots (see frozen_infer / frozen_ternary_codes /
  // frozen_gelu_code_cuts):
  // guarded by snap_mu_ for building, published through the acquire/release
  // flags for lock-free reads.
  mutable std::mutex snap_mu_;
  mutable std::atomic<bool> snap_valid_{false};
  mutable Tensor snapshot_;
  mutable std::atomic<bool> codes_valid_{false};
  mutable TernaryCodes codes_;
  mutable std::atomic<bool> cuts_valid_{false};
  mutable GeluCodeCuts cuts_{};
  // frozen_panels' two slots; `tier` publishes them (kAuto: not built).
  struct FrozenPanels {
    std::atomic<gemm::Kernel> tier{gemm::Kernel::kAuto};
    gemm::PackedB packed;
  };
  mutable FrozenPanels dense_panels_, code_panels_;
  FrozenPanels& panels(bool codes) const { return codes ? code_panels_ : dense_panels_; }
};

}  // namespace ascend::nn
