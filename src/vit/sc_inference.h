#pragma once
// sc_inference.h — run a trained ViT with bit-true SC circuit emulation.
//
// The SC-friendly low-precision model's linear algebra on thermometer grids
// is exact (the truth-table multiplier and BSN adder introduce no error), so
// the accelerator-vs-float difference comes from the nonlinear blocks. This
// module swaps those in on the const infer path only (training and
// vit::evaluate(model) keep the float blocks):
//   * attention softmax -> the iterative approximate softmax SC circuit,
//     per [By, s1, s2, k] configuration (Table VI accuracy column);
//   * GELU -> the gate-assisted SI block transfer function.

#include "sc/gate_si.h"
#include "sc/softmax_iter.h"
#include "vit/dataset.h"
#include "vit/model.h"

namespace ascend::vit {

struct ScInferenceConfig {
  bool use_sc_softmax = true;
  sc::SoftmaxIterConfig softmax;  ///< m is overridden with the model's token count
  bool use_sc_gelu = false;
  int gelu_bsl = 8;               ///< data BSL of the gate-assisted SI GELU block
  double gelu_range = 6.0;        ///< +- input range covered by the GELU block
};

/// Top-1 accuracy with the SC nonlinear blocks swapped in. The model's hooks
/// are cleared on exit. Evaluates `model` served in place
/// (vit::make_sc_servable_in_place): nonlinear blocks from the tf_cache LUTs.
double evaluate_sc(VisionTransformer& model, const Dataset& data, const ScInferenceConfig& cfg,
                   int batch_size = 128);

}  // namespace ascend::vit
