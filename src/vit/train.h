#pragma once
// train.h — training loops and the ASCEND two-stage pipeline (Section V).
//
// Stage 1, progressive quantization:
//   FP LN-ViT  (reference teacher)
//   FP BN-ViT  (LN -> BN swap, KD from LN-ViT)
//   W16-A16-R16  (init + teacher: FP BN-ViT)
//   W16-A2-R16   (init: previous step; teacher: W16-A16-R16)
//   W2-A2-R16    (init: previous step; teacher: W16-A16-R16)
// KD objective: Loss = CE + KL(Zs, Zt) + beta/M * sum_i MSE(S_i, T_i), beta=2.
//
// Stage 2, approximate-softmax-aware fine-tuning: swap exact softmax for the
// differentiable iterative approximation and fine-tune briefly at low LR.

#include <cstdint>
#include <memory>

#include "runtime/servable.h"
#include "vit/dataset.h"
#include "vit/model.h"

namespace ascend::vit {

struct TrainOptions {
  int epochs = 10;
  int batch_size = 64;
  float lr = 7.5e-4f;
  float weight_decay = 0.01f;
  float kd_beta = 2.0f;   ///< feature-MSE coefficient (paper: 2)
  bool use_kd = true;     ///< ignored when teacher == nullptr
  std::uint64_t seed = 7;
  bool verbose = false;
};

/// Top-1 accuracy on a dataset (eval mode).
double evaluate(VisionTransformer& model, const Dataset& data, int batch_size = 128);

/// Top-1 accuracy of a serving variant: the same batching/argmax loop over
/// Servable::infer.
double evaluate(const runtime::Servable& servable, const Dataset& data, int batch_size = 128);

/// Train `student` on `data`; when `teacher` is non-null the KD losses are
/// added. Returns final training loss.
double train_model(VisionTransformer& student, VisionTransformer* teacher, const Dataset& data,
                   const TrainOptions& opt);

/// Knobs for the full pipeline run (bench_table5 / bench_table6).
struct PipelineOptions {
  VitConfig config;            ///< topology (norm field is ignored; set per stage)
  int stage_epochs = 12;       ///< epochs per progressive-quantization step
  int finetune_epochs = 4;     ///< stage-2 epochs
  float stage_lr = 7.5e-4f;    ///< paper's stage-1 initial LR
  float finetune_lr = 5e-6f;   ///< paper's stage-2 initial LR (scaled up for the short schedule)
  int batch_size = 64;
  std::uint64_t seed = 7;
  bool verbose = false;
};

/// Accuracy of every Table V row plus the trained models needed downstream.
struct PipelineResult {
  double acc_fp_ln = 0.0;           ///< "FP LN-ViT"
  double acc_fp_bn = 0.0;           ///< BN-swapped FP model (paper: <0.1% off LN)
  double acc_baseline_direct = 0.0; ///< "Baseline low-precision BN-ViT"
  double acc_progressive = 0.0;     ///< "+ progressive quant"
  double acc_approx = 0.0;          ///< "+ appr softmax" (no fine-tune)
  double acc_approx_ft = 0.0;       ///< "+ appr-aware ft"
  std::unique_ptr<VisionTransformer> sc_friendly;  ///< final W2-A2-R16 model (approx softmax)
};

/// Run the complete two-stage pipeline and fill every Table V row.
PipelineResult run_ascend_pipeline(const PipelineOptions& opt, const Dataset& train_set,
                                   const Dataset& test_set);

}  // namespace ascend::vit
