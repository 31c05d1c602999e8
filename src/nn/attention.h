#pragma once
// attention.h — multi-head self-attention with swappable softmax.
//
// The softmax over attention scores can be (a) exact, (b) the differentiable
// iterative approximation (training stage 2), or (c) a row-tile hook on the
// const infer() path only — which is how the SC servables of
// vit/servable.h inject the bit-true softmax block per configuration.
// forward()/backward() (training, vit::evaluate(model)) never call the hook.

#include <functional>
#include <vector>

#include "nn/approx_softmax.h"
#include "nn/module.h"

namespace ascend::nn {

enum class SoftmaxKind { kExact, kApprox };

/// A nonlinear block substituted on the const infer path (the SC GELU of
/// vit/servable.h); empty = no substitution.
using InferHook = std::function<Tensor(const Tensor&)>;

/// Softmax substituted on the const infer path (the SC softmax of
/// vit/servable.h): called once per (batch, head) tile with `rows` (= the
/// token count) rows of that many scores at `scores`, it writes the rows'
/// probabilities to `out`. It runs inside infer()'s parallel head loop, so
/// it must be thread-safe and must not throw; empty = no substitution.
using SoftmaxTileHook = std::function<void(const float* scores, int rows, float* out)>;

class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(int dim, int heads, Rng& rng, int approx_k = 3);

  /// x: [B*T, dim] (token-major). Returns [B*T, dim].
  Tensor forward(const Tensor& x, int batch, int tokens);
  Tensor backward(const Tensor& grad_out);
  /// Re-entrant inference forward: activations live on the call stack and
  /// in per-thread scratch, so concurrent calls are safe. One parallel loop
  /// over (batch, head) tiles computes each head's T×T scores from Q/K read
  /// straight out of the fused qkv projection (gemm::gemm_nt_small), applies
  /// the softmax to its T rows (the hook when set, once per tile) and writes
  /// the context tile into the merged output (gemm::gemm_nn_small) — no
  /// scores, attention or per-head Q/K/V tensor is allocated. Bit-exact
  /// with forward() when no hook is set.
  Tensor infer(const Tensor& x, int batch, int tokens) const;

  void set_softmax_kind(SoftmaxKind kind) { softmax_kind_ = kind; }
  SoftmaxKind softmax_kind() const { return softmax_kind_; }
  ApproxSoftmax& approx_softmax() { return approx_sm_; }

  /// Softmax replacement that infer() applies to each head's score tile,
  /// superseding softmax_kind there; forward() ignores it. An empty hook
  /// clears it.
  void set_softmax_hook(SoftmaxTileHook hook) noexcept { hook_ = std::move(hook); }

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
  SoftmaxTileHook hook_;

  // Forward caches.
  int batch_ = 0, tokens_ = 0;
  Tensor cached_q_, cached_k_, cached_v_;  // [B*H*T, dh]
  Tensor cached_attn_;                     // [B*H*T, T]
};

}  // namespace ascend::nn
