#pragma once
// servable.h — the model-agnostic serving contract.
//
// A Servable is anything the InferenceEngine can serve: a batched forward
// plus enough shape metadata for the engine to assemble request payloads
// into input tensors and validate them without knowing what the model is.
// The ViT execution modes (fp32 blocked-GEMM, W2A2 ternary codes, SC
// circuit emulation, SC LUT-cached) are adapters over one trained model —
// see vit/servable.h — but the engine only ever sees this interface, so a
// registry can mix models and fidelity modes freely.
//
// Thread-safety contract: infer() must be const and re-entrant — the engine
// runs up to EngineOptions::concurrent_forwards batch forwards through one
// Servable at a time, from different threads, with no external locking.

#include <stdexcept>
#include <string>

#include "nn/tensor.h"

namespace ascend::runtime {

/// Thrown when a request names a variant the registry does not hold.
struct UnknownVariantError : std::invalid_argument {
  explicit UnknownVariantError(const std::string& variant)
      : std::invalid_argument("unknown variant: '" + variant + "'") {}
};

/// Abstract servable model: a re-entrant batched forward with stable shape
/// metadata and a stable identity.
class Servable {
 public:
  virtual ~Servable() = default;

  /// Batched forward: `batch` is [B, input_dim()], the result is
  /// [B, output_dim()]. Must be const and re-entrant (see file comment).
  virtual nn::Tensor infer(const nn::Tensor& batch) const = 0;

  /// Flattened per-request payload length this servable consumes.
  virtual int input_dim() const = 0;
  /// Per-request output row length (ViT adapters: the class count).
  virtual int output_dim() const = 0;

  /// Stable identity used as the registry key and the request routing key.
  /// Must not change over the servable's lifetime.
  virtual const std::string& variant_id() const = 0;
};

}  // namespace ascend::runtime
