#include "vit/sc_inference.h"

#include "vit/servable.h"
#include "vit/train.h"

namespace ascend::vit {

double evaluate_sc(VisionTransformer& model, const Dataset& data, const ScInferenceConfig& cfg,
                   int batch_size) {
  // `model` served in place: SC hooks installed on its infer path
  // (LUT-cached, validated bit-exact against the circuit emulators), the
  // GELU table applied inside the MLP, the softmax inside attention's head
  // loop, hooks cleared when the servable is released at the end of this
  // statement.
  return evaluate(*make_sc_servable_in_place(model, cfg), data, batch_size);
}

}  // namespace ascend::vit
