#pragma once
// test_util.h — shared helpers for the ASCEND test suite.

#include <cmath>
#include <functional>
#include <memory>

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

}  // namespace ascend::testing
