#pragma once
// profile.h — layer-by-layer profile of one ViT forward, timed by calling the
// model's public sub-module infers in forward order.

#include <string>
#include <vector>

#include "common.h"
#include "nn/tensor.h"
#include "vit/model.h"

namespace perfbench {

namespace vit = ascend::vit;
namespace nn = ascend::nn;

/// Ops of the forward profile, in forward order. attn_core (Q·Kᵀ, softmax,
/// attn·V) is the MSA infer minus its qkv and proj linears; gelu is the MLP
/// infer minus fc1 and fc2; residual is the skip add plus its quantizer.
inline const std::vector<std::string>& profile_ops() {
  static const std::vector<std::string> ops = {
      "vit.embed_us", "nn.qkv_us",      "nn.attn_core_us", "nn.proj_us",   "vit.norm_us",
      "nn.fc1_us",    "vit.gelu_us",    "nn.fc2_us",       "vit.residual_us", "vit.head_us"};
  return ops;
}

struct OpProfile {
  std::vector<double> op_us;  ///< median per forward, indexed like profile_ops()
  double forward_us = 0;      ///< median of the model's own infer()
  double op_sum_ratio = 0;    ///< sum(op_us) / forward_us
  double linear_flops = 0;    ///< FLOPs of qkv/proj/fc1/fc2 per forward
  bool bit_exact = false;     ///< op-by-op chain reproduced infer()'s logits
};

/// Tolerance on OpProfile::op_sum_ratio: the separately timed ops must add
/// up to the whole forward within this share.
inline constexpr double kOpSumTolerance = 0.20;

/// What the profiles of a run add up to.
struct ProfileSummary {
  bool bit_exact = true;     ///< every op chain reproduced infer()'s logits
  double worst_ratio = 1;    ///< the op_sum_ratio farthest from 1
  double gemm_gflops = 0;    ///< fp32 qkv/proj/fc1/fc2 at the max batch
};

/// Profiles `model` served as `variant` at batch 1 (the first image of
/// `batch`) and at the full `batch`, reports both ("b1", "bmax") and folds
/// them into `sum`.
void profile_variant(vit::VisionTransformer& model, const std::string& variant,
                     const nn::Tensor& batch, int reps, SpanLog& log, Report& rep,
                     ProfileSummary& sum);

/// [n, pixels] tensor of the first n images.
nn::Tensor stack_images(const std::vector<std::vector<float>>& images, int n);

/// Adds the profile's per-layer metrics under `<op>.<variant>.<tag>`, plus
/// `vit.forward_us.<variant>.<tag>`. A null profile reports zeros (the
/// variant is not served by this workload).
void report_profile(Report& rep, const std::string& variant, const std::string& tag,
                    const OpProfile* p);

}  // namespace perfbench
