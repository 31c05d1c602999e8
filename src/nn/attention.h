#pragma once
// attention.h — multi-head self-attention with swappable softmax.
//
// The softmax over attention scores can be (a) exact, (b) the differentiable
// iterative approximation (training stage 2), or (c) an arbitrary hook on
// the const infer() path only — which is how the SC servables of
// vit/servable.h inject the bit-true softmax block per configuration.
// forward()/backward() (training, vit::evaluate(model)) never call the hook.

#include <functional>
#include <vector>

#include "nn/approx_softmax.h"
#include "nn/module.h"

namespace ascend::nn {

enum class SoftmaxKind { kExact, kApprox };

/// A nonlinear block substituted on the const infer path (the SC softmax
/// and GELU of vit/servable.h); empty = no substitution.
using InferHook = std::function<Tensor(const Tensor&)>;

class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(int dim, int heads, Rng& rng, int approx_k = 3);

  /// x: [B*T, dim] (token-major). Returns [B*T, dim].
  Tensor forward(const Tensor& x, int batch, int tokens);
  Tensor backward(const Tensor& grad_out);
  /// Re-entrant inference forward: all activation state lives on the call
  /// stack, so concurrent calls are safe. The softmax hook (if set) is
  /// invoked per call and must itself be thread-safe. Per-head Q·Kᵀ and
  /// attn·V products run through the strided blocked-GEMM kernels
  /// (nn/gemm.h) reading panels straight out of the fused qkv projection —
  /// no per-head Q/K/V tensors are ever allocated on this path.
  Tensor infer(const Tensor& x, int batch, int tokens) const;

  void set_softmax_kind(SoftmaxKind kind) { softmax_kind_ = kind; }
  SoftmaxKind softmax_kind() const { return softmax_kind_; }
  ApproxSoftmax& approx_softmax() { return approx_sm_; }

  /// Softmax replacement that infer() applies to the raw score rows
  /// [B*H*T, T], superseding softmax_kind there; forward() ignores it. An
  /// empty hook clears it.
  void set_softmax_hook(InferHook hook) noexcept { hook_ = std::move(hook); }

  Linear& qkv() { return qkv_; }
  Linear& proj() { return proj_; }
  void collect_params(std::vector<Param*>& out);

  int dim() const { return dim_; }
  int heads() const { return heads_; }

 private:
  int dim_, heads_, dh_;
  Linear qkv_, proj_;
  SoftmaxKind softmax_kind_ = SoftmaxKind::kExact;
  ApproxSoftmax approx_sm_;
  InferHook hook_;

  // Forward caches.
  int batch_ = 0, tokens_ = 0;
  Tensor cached_q_, cached_k_, cached_v_;  // [B*H*T, dh]
  Tensor cached_attn_;                     // [B*H*T, T]
};

}  // namespace ascend::nn
