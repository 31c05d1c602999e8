#pragma once
// servable.h — ViT adapters for the model-agnostic serving API.
//
// One trained vit::VisionTransformer fans out into named runtime::Servable
// variants. make_servable adopts a serving model — a clone_for_serving() of
// an in-memory model, or one cold-started from a checkpoint — and applies the
// precision and hooks of its runtime::VariantKind:
//   * kFp32          — fake-quantization stripped; dense blocked GEMM all
//                      the way (the fidelity ceiling);
//   * kPackedTernary — the W2A2 regime served as ternary codes through the
//                      blocked GEMM;
//   * kScLut         — SC softmax / GELU served from the transfer-function
//                      LUT cache;
//   * kScEmulated    — SC softmax / GELU by per-activation circuit emulation.
// The SC hooks act on the model's const infer() path only: training and
// vit::evaluate(model), which run forward(), never see them. Both hooks are
// built before either is installed, so a rejected SC config leaves the model
// untouched. This is the one place a kind maps to a precision or hook policy;
// ModelRegistry::register_from_file loads a file and hands the model here.
// Register any mix in a runtime::ModelRegistry and point an InferenceEngine
// at it; requests then pick a variant per call (A/B fidelity, mixed
// precision tiers) and variants hot-swap via ModelRegistry::publish.
//
// The LUT GELU is a count table (vit::GeluHook) the MLP applies on the
// calling thread; under W2A2 it is composed with fc2's input quantizer into
// one count -> code table. The emulated GELU runs its per-activation circuit
// work on the calling thread too, or fans it out over the caller's
// runtime::ThreadPool when ScServableOptions::pool names one. The SC softmax
// runs inside attention's (batch, head) tile loop, one head's rows per call,
// with no pool hop.
//
// make_sc_servable_in_place drives the *caller's* model instead of an adopted
// one (hooks installed at construction, cleared on destruction; while it
// lives, the model's own infer() and its blocks' msa().infer / mlp().infer
// run the SC blocks) — vit::evaluate_sc serves through it.

#include <memory>
#include <string>

#include "runtime/registry.h"
#include "runtime/servable.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "vit/model.h"
#include "vit/sc_inference.h"

namespace ascend::vit {

/// How an SC servable runs its nonlinear blocks.
struct ScServableOptions {
  /// false: bit-true per-activation circuit emulation. Read only by
  /// make_sc_servable_in_place; make_servable takes it from the kind.
  bool use_tf_cache = true;
  /// Worker pool the circuit-emulated SC GELU spreads each forward's
  /// activations over; null runs them on the calling thread. The LUT GELU
  /// and the SC softmax never use it. The pool must outlive the servable.
  runtime::ThreadPool* pool = nullptr;
  /// Transfer-function LUT cache to tabulate/serve from; null = the
  /// process-wide runtime::global_tf_cache(). Must outlive the servable.
  runtime::TfCache* cache = nullptr;
};

/// Servable owning `model` and serving it as `kind`. kFp32 applies
/// PrecisionSpec::fp() to the model; kPackedTernary keeps its calibration and
/// throws std::invalid_argument unless its precision is ternary W and A
/// (w_bsl == 2 && a_bsl == 2); kScLut / kScEmulated install the SC
/// softmax/GELU hooks from `sc` (LUT-cached / circuit-emulated; `sc_opts`
/// supplies the pool and cache). `sc` and `sc_opts` are ignored by the other
/// kinds. `retain` is an opaque lifetime anchor destroyed strictly after the
/// model: passing the MmapCheckpoint of a load_model_mmap keeps the mapped
/// weight views valid for every in-flight forward, including across a
/// ModelRegistry hot-swap to a newer mapping.
std::shared_ptr<runtime::Servable> make_servable(std::unique_ptr<VisionTransformer> model,
                                                 runtime::VariantKind kind,
                                                 std::string variant_id,
                                                 const ScInferenceConfig& sc = {},
                                                 const ScServableOptions& sc_opts = {},
                                                 std::shared_ptr<const void> retain = nullptr);

/// SC servable over the caller's model itself (no clone): exclusive use of
/// the model's infer hooks while alive, cleared on destruction. The model
/// must outlive the servable; use make_servable for multi-variant registries.
std::shared_ptr<runtime::Servable> make_sc_servable_in_place(VisionTransformer& model,
                                                             const ScInferenceConfig& cfg,
                                                             ScServableOptions opts = {},
                                                             std::string variant_id = "sc");

}  // namespace ascend::vit
