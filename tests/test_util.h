#pragma once
// test_util.h — shared helpers for the ASCEND test suite.

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"
#include "runtime/registry.h"
#include "vit/servable.h"

namespace ascend::testing {

/// Central-difference numerical gradient of a scalar function of a tensor,
/// compared element-by-element against `analytic`. Returns the max abs error.
inline double max_grad_error(nn::Tensor& x, const std::function<double()>& loss_fn,
                             const nn::Tensor& analytic, float eps = 1e-3f) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_fn();
    x[i] = orig - eps;
    const double lm = loss_fn();
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    worst = std::max(worst, std::fabs(num - static_cast<double>(analytic[i])));
  }
  return worst;
}

/// Restores the process-wide GEMM tier on scope exit, for tests that walk
/// the tiers the lane-wide kernels dispatch on.
struct TierGuard {
  nn::gemm::Kernel saved = nn::gemm::kernel();  // resolved tier, never kAuto
  ~TierGuard() { nn::gemm::set_kernel(saved); }
};

/// Every tier this CPU runs, the base tier (the tests' oracle) first.
inline std::vector<nn::gemm::Kernel> supported_tiers() {
  std::vector<nn::gemm::Kernel> out;
  for (nn::gemm::Kernel k : {nn::gemm::Kernel::kBase, nn::gemm::Kernel::kAvx2,
                             nn::gemm::Kernel::kAvx512})
    if (nn::gemm::kernel_supported(k)) out.push_back(k);
  return out;
}

/// Bitwise float equality (NaN payloads and the sign of zero included).
/// Empty spans compare equal (their pointers may be null).
inline bool same_bits(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// `model` served in place as a registry's sole SC variant, the hooks'
/// per-activation work on `pool`, which must outlive the registry's users;
/// `use_tf_cache = false` serves the circuit emulators instead of the LUTs.
inline std::shared_ptr<runtime::ModelRegistry> in_place_sc_registry(
    vit::VisionTransformer& model, const vit::ScInferenceConfig& cfg, runtime::ThreadPool& pool,
    bool use_tf_cache = true) {
  vit::ScServableOptions sopts;
  sopts.pool = &pool;
  sopts.use_tf_cache = use_tf_cache;
  auto registry = std::make_shared<runtime::ModelRegistry>();
  registry->publish(vit::make_sc_servable_in_place(model, cfg, sopts));
  return registry;
}

/// Argmax label of each row of `variant`'s forward over `images`.
inline std::vector<int> infer_labels(const runtime::ModelRegistry& registry,
                                     const std::string& variant, const nn::Tensor& images) {
  const nn::Tensor logits = registry.get(variant)->infer(images);
  std::vector<int> labels(static_cast<std::size_t>(logits.dim(0)));
  for (int r = 0; r < logits.dim(0); ++r) {
    int best = 0;
    for (int c = 1; c < logits.dim(1); ++c)
      if (logits.at(r, c) > logits.at(r, best)) best = c;
    labels[static_cast<std::size_t>(r)] = best;
  }
  return labels;
}

}  // namespace ascend::testing
