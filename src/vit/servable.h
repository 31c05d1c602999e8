#pragma once
// servable.h — ViT adapters for the model-agnostic serving API.
//
// One trained vit::VisionTransformer fans out into named runtime::Servable
// variants, each a private serving clone (weights, quantizer calibration and
// BN statistics copied; hooks and precision per variant):
//   * make_fp32_servable        — fake-quantization stripped; dense blocked
//                                 GEMM all the way (the fidelity ceiling);
//   * make_packed_ternary_servable — the W2A2 regime served as ternary
//                                 codes through the blocked GEMM;
//   * make_sc_servable          — SC nonlinear blocks active: softmax /
//                                 GELU served from the transfer-function
//                                 LUT cache, or per-activation circuit
//                                 emulation when `use_tf_cache` is false.
// Register any mix in a runtime::ModelRegistry and point an InferenceEngine
// at it; requests then pick a variant per call (A/B fidelity, mixed
// precision tiers) and variants hot-swap via ModelRegistry::publish.
//
// SC variants fan their per-activation work out over a runtime::ThreadPool:
// the caller's (ScServableOptions::pool, which fixes the width) or, when none
// is given, one the servable owns, sized to the hardware concurrency.
//
// make_sc_servable_in_place drives the *caller's* model instead of a clone
// (hooks installed at construction, restored on destruction) —
// vit::evaluate_sc serves through it.

#include <memory>
#include <string>

#include "runtime/servable.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "vit/model.h"
#include "vit/sc_inference.h"

namespace ascend::vit {

/// How an SC servable runs its nonlinear blocks.
struct ScServableOptions {
  bool use_tf_cache = true;  ///< false: bit-true per-activation circuit emulation
  /// Worker pool for the per-activation SC work inside each forward. When
  /// null, the servable owns a pool sized to the hardware concurrency; pass
  /// a pool for any other width. An external pool must outlive the servable.
  runtime::ThreadPool* pool = nullptr;
  /// Transfer-function LUT cache to tabulate/serve from; null = the
  /// process-wide runtime::global_tf_cache(). Must outlive the servable.
  runtime::TfCache* cache = nullptr;
};

/// Full-precision dense variant: serving clone with fake-quantization
/// stripped (PrecisionSpec::fp()), exact softmax/GELU.
std::shared_ptr<runtime::Servable> make_fp32_servable(VisionTransformer& model,
                                                      std::string variant_id = "fp32");

/// W2A2 variant: serving clone keeping the model's ternary weight/activation
/// calibration; Linear layers multiply 0/±1 codes through the blocked GEMM
/// (see nn::Linear). Throws std::invalid_argument unless the model's
/// precision is ternary W and A (w_bsl == 2 && a_bsl == 2).
std::shared_ptr<runtime::Servable> make_packed_ternary_servable(
    VisionTransformer& model, std::string variant_id = "w2a2-packed");

/// SC-emulated variant: serving clone with the SC softmax/GELU hooks from
/// `cfg` installed on it (LUT-cached or circuit-emulated per `opts`).
std::shared_ptr<runtime::Servable> make_sc_servable(VisionTransformer& model,
                                                    const ScInferenceConfig& cfg,
                                                    ScServableOptions opts = {},
                                                    std::string variant_id = "sc");

/// SC servable over the caller's model itself (no clone): exclusive use of
/// the model's hooks while alive, restored on destruction. The model must
/// outlive the servable; use make_sc_servable for multi-variant registries.
std::shared_ptr<runtime::Servable> make_sc_servable_in_place(VisionTransformer& model,
                                                             const ScInferenceConfig& cfg,
                                                             ScServableOptions opts = {},
                                                             std::string variant_id = "sc");

/// Servable taking ownership of an already-prepared serving model — no
/// clone, no precision change. Built for checkpoint cold-start
/// (serialize::load_model / load_model_mmap): `retain` is an opaque lifetime
/// anchor destroyed strictly after the model, so passing the MmapCheckpoint
/// keeps mapped weight views valid for every in-flight forward, including
/// across a ModelRegistry hot-swap to a newer mapping.
std::shared_ptr<runtime::Servable> make_servable_over(std::unique_ptr<VisionTransformer> model,
                                                      std::string variant_id,
                                                      std::shared_ptr<const void> retain = nullptr);

/// make_servable_over with the SC nonlinear-block hooks from `cfg` installed
/// on the adopted model (LUT-cached or circuit-emulated per `opts`).
std::shared_ptr<runtime::Servable> make_sc_servable_over(
    std::unique_ptr<VisionTransformer> model, const ScInferenceConfig& cfg,
    ScServableOptions opts, std::string variant_id,
    std::shared_ptr<const void> retain = nullptr);

}  // namespace ascend::vit
