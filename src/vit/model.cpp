#include "vit/model.h"

#include <stdexcept>

#include "runtime/metrics/trace.h"

namespace ascend::vit {

using nn::Tensor;

// ---------------------------------------------------------------------------
// NormLayer
// ---------------------------------------------------------------------------

NormLayer::NormLayer(NormKind kind, int features) : kind_(kind) {
  if (kind_ == NormKind::kLayerNorm)
    ln_ = std::make_unique<nn::LayerNorm>(features);
  else
    bn_ = std::make_unique<nn::BatchNorm>(features);
}

Tensor NormLayer::forward(const Tensor& x, bool training) {
  return kind_ == NormKind::kLayerNorm ? ln_->forward(x) : bn_->forward(x, training);
}

Tensor NormLayer::infer(const Tensor& x) const {
  return kind_ == NormKind::kLayerNorm ? ln_->infer(x) : bn_->infer(x);
}

Tensor NormLayer::backward(const Tensor& grad) {
  return kind_ == NormKind::kLayerNorm ? ln_->backward(grad) : bn_->backward(grad);
}

void NormLayer::collect_params(std::vector<nn::Param*>& out) {
  if (kind_ == NormKind::kLayerNorm)
    ln_->collect_params(out);
  else
    bn_->collect_params(out);
}

// ---------------------------------------------------------------------------
// Mlp
// ---------------------------------------------------------------------------

Mlp::Mlp(int dim, int hidden, nn::Rng& rng) : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {}

Tensor Mlp::forward(const Tensor& x) {
  return fc2_.forward(gelu_.forward(fc1_.forward(x)));
}

Tensor Mlp::infer(const Tensor& x) const {
  Tensor h = fc1_.infer(x);
  if (const nn::CountTable* gelu = hook_.table.get()) {
    // The table GELU runs on the calling thread, in place: under W2A2 as one
    // count -> code table with fc2's input quantizer folded in.
    if (fc2_.serves_ternary_codes()) {
      fc2_.input_quant().frozen_code_table(*gelu).apply(h.data(), h.size(), h.data());
      return fc2_.infer_codes(h);
    }
    gelu->apply(h.data(), h.size(), h.data());
    return fc2_.infer(h);
  }
  if (hook_.fn) return fc2_.infer(hook_.fn(h));
  if (fc2_.serves_ternary_codes()) {
    // W2A2: fc2 consumes only the ternary code of GELU(h), which the cut
    // points decide without erf for all but a narrow band of elements.
    nn::gelu_codes_inplace(h, fc2_.input_quant().frozen_gelu_code_cuts());
    return fc2_.infer_codes(h);
  }
  return fc2_.infer(gelu_.infer(h));
}

Tensor Mlp::backward(const Tensor& grad) {
  Tensor g = fc2_.backward(grad);
  g = gelu_.backward(g);
  return fc1_.backward(g);
}

void Mlp::collect_params(std::vector<nn::Param*>& out) {
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

// ---------------------------------------------------------------------------
// EncoderBlock
// ---------------------------------------------------------------------------

EncoderBlock::EncoderBlock(const VitConfig& cfg, nn::Rng& rng)
    : norm1_(cfg.norm, cfg.dim),
      norm2_(cfg.norm, cfg.dim),
      msa_(cfg.dim, cfg.heads, rng, cfg.approx_softmax_k),
      mlp_(cfg.dim, cfg.dim * cfg.mlp_ratio, rng) {}

Tensor EncoderBlock::forward(const Tensor& x, int batch, int tokens, bool training) {
  Tensor a = norm1_.forward(x, training);
  a = msa_.forward(a, batch, tokens);
  Tensor x1 = rq1_.forward(nn::add(x, a));
  Tensor b = norm2_.forward(x1, training);
  b = mlp_.forward(b);
  return rq2_.forward(nn::add(x1, b));
}

Tensor EncoderBlock::infer(const Tensor& x, int batch, int tokens) const {
  // Layer-group phase spans: no-ops (one thread-local read each) unless the
  // engine traces this forward — see runtime/metrics/trace.h.
  Tensor x1;
  {
    runtime::trace::ScopedSpan span("msa");
    Tensor a = norm1_.infer(x);
    a = msa_.infer(a, batch, tokens);
    x1 = rq1_.infer_add(x, std::move(a));
  }
  runtime::trace::ScopedSpan span("mlp");
  Tensor b = norm2_.infer(x1);
  b = mlp_.infer(b);
  return rq2_.infer_add(x1, std::move(b));
}

Tensor EncoderBlock::backward(const Tensor& grad) {
  Tensor g = rq2_.backward(grad);
  // g flows to both x1 (identity) and the MLP branch.
  Tensor g_mlp = mlp_.backward(g);
  Tensor g_x1 = nn::add(g, norm2_.backward(g_mlp));
  Tensor g1 = rq1_.backward(g_x1);
  Tensor g_msa = msa_.backward(g1);
  return nn::add(g1, norm1_.backward(g_msa));
}

void EncoderBlock::collect_params(std::vector<nn::Param*>& out) {
  norm1_.collect_params(out);
  msa_.collect_params(out);
  rq1_.collect_params(out);
  norm2_.collect_params(out);
  mlp_.collect_params(out);
  rq2_.collect_params(out);
}

// ---------------------------------------------------------------------------
// VisionTransformer
// ---------------------------------------------------------------------------

VisionTransformer::VisionTransformer(const VitConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      patch_embed_(cfg.patch_dim(), cfg.dim, rng_),
      final_norm_(cfg.norm, cfg.dim),
      head_(cfg.dim, cfg.classes, rng_) {
  pos_embed_.init_shape({cfg_.tokens(), cfg_.dim});
  rng_.fill_normal(pos_embed_.value, 0.0f, 0.02f);
  pos_embed_.no_weight_decay = true;
  blocks_.reserve(static_cast<std::size_t>(cfg_.layers));
  for (int l = 0; l < cfg_.layers; ++l) blocks_.emplace_back(cfg_, rng_);
}

Tensor VisionTransformer::patchify(const Tensor& images) const {
  const int b = images.dim(0);
  const int hw = cfg_.image_size;
  const int p = cfg_.patch_size;
  const int grid = hw / p;
  const int t = cfg_.tokens();
  const int pd = cfg_.patch_dim();
  if (images.dim(1) != cfg_.channels * hw * hw)
    throw std::invalid_argument("VisionTransformer: bad image size");
  Tensor out({b * t, pd});
  for (int img = 0; img < b; ++img) {
    const float* src = images.data() + static_cast<std::size_t>(img) * cfg_.channels * hw * hw;
    for (int gy = 0; gy < grid; ++gy)
      for (int gx = 0; gx < grid; ++gx) {
        float* dst = out.data() + (static_cast<std::size_t>(img) * t + gy * grid + gx) * pd;
        int idx = 0;
        for (int c = 0; c < cfg_.channels; ++c)
          for (int py = 0; py < p; ++py)
            for (int px = 0; px < p; ++px)
              dst[idx++] = src[(c * hw + gy * p + py) * hw + gx * p + px];
      }
  }
  return out;
}

Tensor VisionTransformer::forward(const Tensor& images, bool training) {
  const int batch = images.dim(0);
  const int tokens = cfg_.tokens();
  cached_batch_ = batch;

  Tensor x = patch_embed_.forward(patchify(images));  // [B*T, dim]
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t)
      for (int d = 0; d < cfg_.dim; ++d)
        x[(static_cast<std::size_t>(b) * tokens + t) * cfg_.dim + d] +=
            pos_embed_.value[static_cast<std::size_t>(t) * cfg_.dim + d];

  block_outputs_.clear();
  block_outputs_.reserve(blocks_.size());
  for (auto& blk : blocks_) {
    x = blk.forward(x, batch, tokens, training);
    block_outputs_.push_back(x);
  }
  x = final_norm_.forward(x, training);

  // Mean pool over tokens.
  cached_pooled_ = Tensor({batch, cfg_.dim});
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t)
      for (int d = 0; d < cfg_.dim; ++d)
        cached_pooled_.at(b, d) += x[(static_cast<std::size_t>(b) * tokens + t) * cfg_.dim + d] /
                                   static_cast<float>(tokens);
  return head_.forward(cached_pooled_);
}

Tensor VisionTransformer::infer(const Tensor& images) const {
  const int batch = images.dim(0);
  const int tokens = cfg_.tokens();

  Tensor x;
  {
    runtime::trace::ScopedSpan span("embed");
    x = patch_embed_.infer(patchify(images));  // [B*T, dim]
    for (int b = 0; b < batch; ++b)
      for (int t = 0; t < tokens; ++t)
        for (int d = 0; d < cfg_.dim; ++d)
          x[(static_cast<std::size_t>(b) * tokens + t) * cfg_.dim + d] +=
              pos_embed_.value[static_cast<std::size_t>(t) * cfg_.dim + d];
  }

  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    runtime::trace::ScopedSpan span("block", static_cast<int>(i));
    x = blocks_[i].infer(x, batch, tokens);
  }

  runtime::trace::ScopedSpan span("head");
  x = final_norm_.infer(x);

  // Mean pool over tokens.
  Tensor pooled({batch, cfg_.dim});
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t)
      for (int d = 0; d < cfg_.dim; ++d)
        pooled.at(b, d) += x[(static_cast<std::size_t>(b) * tokens + t) * cfg_.dim + d] /
                           static_cast<float>(tokens);
  return head_.infer(pooled);
}

void VisionTransformer::backward(const Tensor& grad_logits,
                                 const std::vector<Tensor>* feature_grads) {
  const int batch = cached_batch_;
  const int tokens = cfg_.tokens();
  Tensor g_pool = head_.backward(grad_logits);  // [B, dim]

  // Un-pool.
  Tensor g({batch * tokens, cfg_.dim});
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t)
      for (int d = 0; d < cfg_.dim; ++d)
        g[(static_cast<std::size_t>(b) * tokens + t) * cfg_.dim + d] =
            g_pool.at(b, d) / static_cast<float>(tokens);

  g = final_norm_.backward(g);
  for (int l = static_cast<int>(blocks_.size()) - 1; l >= 0; --l) {
    if (feature_grads != nullptr && static_cast<std::size_t>(l) < feature_grads->size() &&
        !(*feature_grads)[static_cast<std::size_t>(l)].empty())
      nn::add_inplace(g, (*feature_grads)[static_cast<std::size_t>(l)]);
    g = blocks_[static_cast<std::size_t>(l)].backward(g);
  }

  // Position embedding gradient (sum over batch).
  for (int b = 0; b < batch; ++b)
    for (int t = 0; t < tokens; ++t)
      for (int d = 0; d < cfg_.dim; ++d)
        pos_embed_.grad[static_cast<std::size_t>(t) * cfg_.dim + d] +=
            g[(static_cast<std::size_t>(b) * tokens + t) * cfg_.dim + d];
  patch_embed_.backward(g);
}

std::vector<nn::Param*> VisionTransformer::params() {
  std::vector<nn::Param*> out;
  patch_embed_.collect_params(out);
  out.push_back(&pos_embed_);
  for (auto& blk : blocks_) blk.collect_params(out);
  final_norm_.collect_params(out);
  head_.collect_params(out);
  return out;
}

std::vector<nn::Param*> VisionTransformer::structural_params() {
  std::vector<nn::Param*> out;
  std::vector<nn::Param*> all = params();
  // Quantizer steps are scalar [1] params flagged no_weight_decay; filter by
  // identity instead: rebuild the list without the quantizer contributions.
  out.reserve(all.size());
  std::vector<nn::Param*> quant;
  for (auto& blk : blocks_) {
    blk.msa().qkv().weight_quant().collect_params(quant);
    blk.msa().qkv().input_quant().collect_params(quant);
    blk.msa().proj().weight_quant().collect_params(quant);
    blk.msa().proj().input_quant().collect_params(quant);
    blk.mlp().fc1().weight_quant().collect_params(quant);
    blk.mlp().fc1().input_quant().collect_params(quant);
    blk.mlp().fc2().weight_quant().collect_params(quant);
    blk.mlp().fc2().input_quant().collect_params(quant);
    blk.residual_quant1().collect_params(quant);
    blk.residual_quant2().collect_params(quant);
  }
  for (nn::Param* p : all) {
    bool is_quant = false;
    for (nn::Param* q : quant)
      if (p == q) {
        is_quant = true;
        break;
      }
    if (!is_quant) out.push_back(p);
  }
  return out;
}

void VisionTransformer::copy_weights_from(VisionTransformer& other) {
  auto dst = structural_params();
  auto src = other.structural_params();
  if (dst.size() != src.size())
    throw std::invalid_argument("copy_weights_from: topology mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->value.shape() != src[i]->value.shape())
      throw std::invalid_argument("copy_weights_from: parameter shape mismatch");
    dst[i]->value = src[i]->value;
  }
}

std::unique_ptr<VisionTransformer> VisionTransformer::clone_for_serving() {
  // The constructor's random init is immediately overwritten; the seed only
  // feeds that throwaway init.
  auto out = std::make_unique<VisionTransformer>(cfg_, /*seed=*/0);
  out->copy_weights_from(*this);
  out->precision_ = precision_;

  // Quantizer calibration: LsqQuantizer's copy assignment carries the spec
  // and the learned step but deliberately drops frozen snapshots, so the
  // clone re-freezes against its own weights.
  const auto copy_linear_quants = [](nn::Linear& dst, nn::Linear& src) {
    dst.weight_quant() = src.weight_quant();
    dst.input_quant() = src.input_quant();
  };
  // BN running statistics are not Params, so copy_weights_from misses them.
  const auto copy_norm_state = [](NormLayer& dst, NormLayer& src) {
    if (nn::BatchNorm* sbn = src.batch_norm()) {
      nn::BatchNorm* dbn = dst.batch_norm();
      dbn->running_mean() = sbn->running_mean();
      dbn->running_var() = sbn->running_var();
      dbn->thaw();
    }
  };
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    EncoderBlock& src = blocks_[l];
    EncoderBlock& dst = out->blocks_[l];
    copy_linear_quants(dst.msa().qkv(), src.msa().qkv());
    copy_linear_quants(dst.msa().proj(), src.msa().proj());
    copy_linear_quants(dst.mlp().fc1(), src.mlp().fc1());
    copy_linear_quants(dst.mlp().fc2(), src.mlp().fc2());
    dst.residual_quant1() = src.residual_quant1();
    dst.residual_quant2() = src.residual_quant2();
    dst.msa().set_softmax_kind(src.msa().softmax_kind());
    copy_norm_state(dst.norm1(), src.norm1());
    copy_norm_state(dst.norm2(), src.norm2());
  }
  copy_norm_state(out->final_norm_, final_norm_);
  return out;
}

void VisionTransformer::apply_precision(const PrecisionSpec& spec) {
  precision_ = spec;
  const nn::QuantSpec wq =
      spec.w_bsl > 0 ? nn::QuantSpec::from_bsl(spec.w_bsl) : nn::QuantSpec::off();
  const nn::QuantSpec aq =
      spec.a_bsl > 0 ? nn::QuantSpec::from_bsl(spec.a_bsl) : nn::QuantSpec::off();
  const nn::QuantSpec rq =
      spec.r_bsl > 0 ? nn::QuantSpec::from_bsl(spec.r_bsl) : nn::QuantSpec::off();
  for (auto& blk : blocks_) {
    blk.msa().qkv().set_weight_quant(wq);
    blk.msa().qkv().set_input_quant(aq);
    blk.msa().proj().set_weight_quant(wq);
    blk.msa().proj().set_input_quant(aq);
    blk.mlp().fc1().set_weight_quant(wq);
    blk.mlp().fc1().set_input_quant(aq);
    blk.mlp().fc2().set_weight_quant(wq);
    blk.mlp().fc2().set_input_quant(aq);
    blk.residual_quant1().reset_spec(rq);
    blk.residual_quant2().reset_spec(rq);
  }
}

void VisionTransformer::set_softmax_kind(nn::SoftmaxKind kind) {
  for (auto& blk : blocks_) blk.msa().set_softmax_kind(kind);
}

void VisionTransformer::set_infer_hooks(const nn::SoftmaxTileHook& softmax,
                                        const GeluHook& gelu) {
  for (auto& blk : blocks_) {
    blk.msa().set_softmax_hook(softmax);
    blk.mlp().set_gelu_hook(gelu);
  }
}

}  // namespace ascend::vit
