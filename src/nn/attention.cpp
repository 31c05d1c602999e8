#include "nn/attention.h"

#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

namespace ascend::nn {

namespace {

// Shared forward/infer kernels; all state is caller-provided so the infer
// path can keep its activations on the stack. All per-head products run
// through the blocked GEMM kernels (nn/gemm.h) with strided panels — the
// infer path reads Q/K/V straight out of the fused qkv projection and writes
// per-head context tiles into the merged output, so no per-head Tensor is
// ever allocated.

/// Head-major gather of a [B*T, 3*dim] qkv projection into Q/K/V [B*H*T, dh]
/// (training path only: backward needs the gathered caches).
void gather_qkv(const Tensor& qkv_out, int batch, int tokens, int heads, int dim, int dh,
                Tensor& q, Tensor& k, Tensor& v) {
  const int bh = batch * heads;
  q = Tensor({bh * tokens, dh});
  k = Tensor({bh * tokens, dh});
  v = Tensor({bh * tokens, dh});
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t) {
      const float* src = qkv_out.data() + (static_cast<std::size_t>(b) * tokens + t) * 3 * dim;
      for (int h = 0; h < heads; ++h) {
        const std::size_t row = (static_cast<std::size_t>(b) * heads + h) * tokens + t;
        for (int d = 0; d < dh; ++d) {
          q[row * dh + d] = src[h * dh + d];
          k[row * dh + d] = src[dim + h * dh + d];
          v[row * dh + d] = src[2 * dim + h * dh + d];
        }
      }
    }
}

/// Start of head g = b*heads + h's panel: b*batch_stride + h*head_stride.
std::size_t panel_offset(int g, int heads, std::size_t batch_stride, std::size_t head_stride) {
  return static_cast<std::size_t>(g / heads) * batch_stride +
         static_cast<std::size_t>(g % heads) * head_stride;
}

/// Scores per (batch, head): S = Q K^T / sqrt(dh), flattened to [B*H*T, T].
/// Head (b, h)'s Q/K panels start at panel_offset and their rows are `ld`
/// apart, so callers can pass either the gathered [B*H*T, dh] caches
/// (strides H*T*dh / T*dh, ld dh) or panels of the fused qkv output
/// (strides T*3dim / dh, ld 3*dim).
Tensor attention_scores_strided(const float* q, const float* k, int ld,
                                std::size_t batch_stride, std::size_t head_stride, int batch,
                                int heads, int tokens, int dh) {
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  const int bh = batch * heads;
  Tensor scores({bh * tokens, tokens});
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const std::size_t off = panel_offset(g, heads, batch_stride, head_stride);
    float* s = scores.data() + static_cast<std::size_t>(g) * tokens * tokens;
    gemm::gemm_nt(tokens, tokens, dh, q + off, ld, k + off, ld, s, tokens);
    for (int i = 0; i < tokens * tokens; ++i) s[i] *= inv_sqrt_dh;
  }
  return scores;
}

/// Context: attn * V, merged back to [B*T, dim]. V panels are addressed like
/// attention_scores_strided's Q/K.
Tensor attention_context_strided(const Tensor& attn, const float* v, int ld,
                                 std::size_t batch_stride, std::size_t head_stride, int batch,
                                 int heads, int tokens, int dim, int dh) {
  const int bh = batch * heads;
  Tensor ctx({batch * tokens, dim});
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const int b = g / heads;
    const int h = g % heads;
    const float* a = attn.data() + static_cast<std::size_t>(g) * tokens * tokens;
    float* out = ctx.data() + static_cast<std::size_t>(b) * tokens * dim + h * dh;
    const float* vh = v + panel_offset(g, heads, batch_stride, head_stride);
    gemm::gemm_nn(tokens, dh, tokens, a, tokens, vh, ld, out, dim);
  }
  return ctx;
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int heads, Rng& rng, int approx_k)
    : dim_(dim),
      heads_(heads),
      dh_(dim / heads),
      qkv_(dim, 3 * dim, rng),
      proj_(dim, dim, rng),
      approx_sm_(approx_k) {
  if (dim % heads != 0)
    throw std::invalid_argument("MultiHeadSelfAttention: dim must be divisible by heads");
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, int batch, int tokens) {
  if (x.rank() != 2 || x.dim(1) != dim_ || x.dim(0) != batch * tokens)
    throw std::invalid_argument("MSA::forward: bad input shape");
  batch_ = batch;
  tokens_ = tokens;

  const Tensor qkv_out = qkv_.forward(x);  // [B*T, 3*dim]
  gather_qkv(qkv_out, batch, tokens, heads_, dim_, dh_, cached_q_, cached_k_, cached_v_);
  const std::size_t head_stride = static_cast<std::size_t>(tokens) * dh_;
  const std::size_t batch_stride = heads_ * head_stride;
  const Tensor scores = attention_scores_strided(cached_q_.data(), cached_k_.data(), dh_,
                                                 batch_stride, head_stride, batch, heads_, tokens,
                                                 dh_);

  cached_attn_ = softmax_kind_ == SoftmaxKind::kApprox ? approx_sm_.forward(scores)
                                                       : softmax_rows(scores);

  const Tensor ctx = attention_context_strided(cached_attn_, cached_v_.data(), dh_, batch_stride,
                                               head_stride, batch, heads_, tokens, dim_, dh_);
  return proj_.forward(ctx);
}

Tensor MultiHeadSelfAttention::infer(const Tensor& x, int batch, int tokens) const {
  if (x.rank() != 2 || x.dim(1) != dim_ || x.dim(0) != batch * tokens)
    throw std::invalid_argument("MSA::infer: bad input shape");

  // The serving path never materialises per-head Q/K/V tensors: the strided
  // GEMM kernels read each head's Q/K/V panel straight out of the fused
  // projection (row stride 3*dim) and write its context tile into the merged
  // [B*T, dim] output, so the only allocations are scores/attn/ctx.
  const Tensor qkv_out = qkv_.infer(x);  // [B*T, 3*dim]
  const int ld = 3 * dim_;
  const std::size_t batch_stride = static_cast<std::size_t>(tokens) * ld;
  const float* q = qkv_out.data();
  const Tensor scores = attention_scores_strided(q, q + dim_, ld, batch_stride, dh_, batch,
                                                 heads_, tokens, dh_);

  Tensor attn;
  if (hook_)
    attn = hook_(scores);
  else if (softmax_kind_ == SoftmaxKind::kApprox)
    attn = approx_sm_.infer(scores);
  else
    attn = softmax_rows(scores);

  const Tensor ctx = attention_context_strided(attn, q + 2 * dim_, ld, batch_stride, dh_, batch,
                                               heads_, tokens, dim_, dh_);
  return proj_.infer(ctx);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  const int batch = batch_, tokens = tokens_;
  const int bh = batch * heads_;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh_));

  const Tensor g_ctx_merged = proj_.backward(grad_out);  // [B*T, dim]

  // Un-merge to [B*H*T, dh].
  Tensor g_ctx({bh * tokens, dh_});
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t)
      for (int h = 0; h < heads_; ++h) {
        const float* src = g_ctx_merged.data() + (static_cast<std::size_t>(b) * tokens + t) * dim_ + h * dh_;
        float* dst = g_ctx.data() + ((static_cast<std::size_t>(b) * heads_ + h) * tokens + t) * dh_;
        for (int d = 0; d < dh_; ++d) dst[d] = src[d];
      }

  // dAttn = g_ctx V^T ; dV = attn^T g_ctx.
  Tensor g_attn({bh * tokens, tokens});
  Tensor g_v({bh * tokens, dh_});
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const float* gc = g_ctx.data() + static_cast<std::size_t>(g) * tokens * dh_;
    const float* v = cached_v_.data() + static_cast<std::size_t>(g) * tokens * dh_;
    const float* a = cached_attn_.data() + static_cast<std::size_t>(g) * tokens * tokens;
    float* ga = g_attn.data() + static_cast<std::size_t>(g) * tokens * tokens;
    float* gv = g_v.data() + static_cast<std::size_t>(g) * tokens * dh_;
    gemm::gemm_nt(tokens, tokens, dh_, gc, dh_, v, dh_, ga, tokens);
    gemm::gemm_tn(tokens, dh_, tokens, a, tokens, gc, dh_, gv, dh_);
  }

  // Through the softmax.
  Tensor g_scores = (softmax_kind_ == SoftmaxKind::kApprox)
                        ? approx_sm_.backward(g_attn)
                        : softmax_rows_backward(cached_attn_, g_attn);

  // dQ = (dS * K) / sqrt(dh) ; dK = (dS^T * Q) / sqrt(dh).
  Tensor g_q({bh * tokens, dh_});
  Tensor g_k({bh * tokens, dh_});
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const float* gs = g_scores.data() + static_cast<std::size_t>(g) * tokens * tokens;
    const float* q = cached_q_.data() + static_cast<std::size_t>(g) * tokens * dh_;
    const float* k = cached_k_.data() + static_cast<std::size_t>(g) * tokens * dh_;
    float* gq = g_q.data() + static_cast<std::size_t>(g) * tokens * dh_;
    float* gk = g_k.data() + static_cast<std::size_t>(g) * tokens * dh_;
    gemm::gemm_nn(tokens, dh_, tokens, gs, tokens, k, dh_, gq, dh_);
    gemm::gemm_tn(tokens, dh_, tokens, gs, tokens, q, dh_, gk, dh_);
    for (int i = 0; i < tokens * dh_; ++i) {
      gq[i] *= inv_sqrt_dh;
      gk[i] *= inv_sqrt_dh;
    }
  }

  // Scatter back into the qkv layout [B*T, 3*dim].
  Tensor g_qkv({batch * tokens, 3 * dim_});
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t) {
      float* dst = g_qkv.data() + (static_cast<std::size_t>(b) * tokens + t) * 3 * dim_;
      for (int h = 0; h < heads_; ++h) {
        const std::size_t row = (static_cast<std::size_t>(b) * heads_ + h) * tokens + t;
        for (int d = 0; d < dh_; ++d) {
          dst[h * dh_ + d] = g_q[row * dh_ + d];
          dst[dim_ + h * dh_ + d] = g_k[row * dh_ + d];
          dst[2 * dim_ + h * dh_ + d] = g_v[row * dh_ + d];
        }
      }
    }
  return qkv_.backward(g_qkv);
}

void MultiHeadSelfAttention::collect_params(std::vector<Param*>& out) {
  qkv_.collect_params(out);
  proj_.collect_params(out);
}

}  // namespace ascend::nn
