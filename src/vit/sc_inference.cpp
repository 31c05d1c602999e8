#include "vit/sc_inference.h"

#include "runtime/engine.h"
#include "vit/servable.h"

namespace ascend::vit {

double evaluate_sc(VisionTransformer& model, const Dataset& data, const ScInferenceConfig& cfg,
                   int batch_size) {
  // `model` served in place as the registry's sole variant: SC hooks
  // installed on it (LUT-cached, validated bit-exact against the circuit
  // emulators), per-activation emulation parallelised across the servable's
  // worker pool, hooks restored when the registry releases the servable.
  auto registry = std::make_shared<runtime::ModelRegistry>();
  registry->publish(make_sc_servable_in_place(model, cfg));
  return runtime::InferenceEngine(registry).evaluate(data, batch_size);
}

}  // namespace ascend::vit
