#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/cache_line.h"
#include "nn/gemm.h"

namespace ascend::nn {

namespace {

// Training-path kernels over the gathered per-head caches that backward()
// needs. infer() does not use them: its tile loop reads Q/K/V straight out of
// the fused qkv projection through gemm.h's small-shape path, which keeps
// these kernels' bits.

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

/// Scores per (batch, head) over the gathered [B*H*T, dh] caches:
/// S = Q K^T / sqrt(dh), flattened to [B*H*T, T].
Tensor attention_scores(const Tensor& q, const Tensor& k, int bh, int tokens, int dh) {
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor scores({bh * tokens, tokens});
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const std::size_t off = static_cast<std::size_t>(g) * tokens * dh;
    float* s = scores.data() + static_cast<std::size_t>(g) * tokens * tokens;
    gemm::gemm_nt(tokens, tokens, dh, q.data() + off, dh, k.data() + off, dh, s, tokens);
    for (int i = 0; i < tokens * tokens; ++i) s[i] *= inv_sqrt_dh;
  }
  return scores;
}

/// Context: attn * V over the gathered V cache, merged back to [B*T, dim].
Tensor attention_context(const Tensor& attn, const Tensor& v, int batch, int heads, int tokens,
                         int dim, int dh) {
  const int bh = batch * heads;
  Tensor ctx({batch * tokens, dim});
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const int b = g / heads;
    const int h = g % heads;
    const float* a = attn.data() + static_cast<std::size_t>(g) * tokens * tokens;
    float* out = ctx.data() + static_cast<std::size_t>(b) * tokens * dim + h * dh;
    const float* vh = v.data() + static_cast<std::size_t>(g) * tokens * dh;
    gemm::gemm_nn(tokens, dh, tokens, a, tokens, vh, dh, out, dim);
  }
  return ctx;
}

/// Grow-only per-thread tile scratch for infer(): one head's scores and
/// probabilities. Kept across forwards, so a steady-state forward never
/// touches the heap for it, and on cache lines of its own, since every head
/// rewrites it.
float* tile_scratch(std::size_t n) {
  thread_local CacheLineVector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
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
  const Tensor scores = attention_scores(cached_q_, cached_k_, batch * heads_, tokens, dh_);

  cached_attn_ = softmax_kind_ == SoftmaxKind::kApprox ? approx_sm_.forward(scores)
                                                       : softmax_rows(scores);

  const Tensor ctx = attention_context(cached_attn_, cached_v_, batch, heads_, tokens, dim_, dh_);
  return proj_.forward(ctx);
}

Tensor MultiHeadSelfAttention::infer(const Tensor& x, int batch, int tokens) const {
  if (x.rank() != 2 || x.dim(1) != dim_ || x.dim(0) != batch * tokens)
    throw std::invalid_argument("MSA::infer: bad input shape");

  const Tensor qkv_out = qkv_.infer(x);  // [B*T, 3*dim]
  const int ld = 3 * dim_;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh_));
  const std::size_t tile = static_cast<std::size_t>(tokens) * tokens;
  Tensor ctx({batch * tokens, dim_});
  const int bh = batch * heads_;
  // One tile pass per (batch, head): Q/K/V panels are read out of the fused
  // projection (row stride 3*dim) and the context tile lands in its columns
  // of the merged [B*T, dim] output.
#pragma omp parallel for schedule(static)
  for (int g = 0; g < bh; ++g) {
    const int b = g / heads_, h = g % heads_;
    const float* q = qkv_out.data() + static_cast<std::size_t>(b) * tokens * ld + h * dh_;
    float* s = tile_scratch(2 * tile);
    float* p = s + tile;
    std::fill(s, p, 0.0f);
    gemm::gemm_nt_small(tokens, tokens, dh_, q, ld, q + dim_, ld, s, tokens);
    for (std::size_t i = 0; i < tile; ++i) s[i] *= inv_sqrt_dh;
    if (hook_)
      hook_(s, tokens, p);
    else if (softmax_kind_ == SoftmaxKind::kApprox)
      approx_sm_.infer_rows(s, tokens, tokens, p);
    else
      softmax_rows(s, tokens, tokens, p);
    gemm::gemm_nn_small(tokens, dh_, tokens, p, tokens, q + 2 * dim_, ld,
                        ctx.data() + static_cast<std::size_t>(b) * tokens * dim_ + h * dh_, dim_);
  }
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
