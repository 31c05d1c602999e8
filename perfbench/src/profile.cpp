#include "profile.h"

#include <cmath>
#include <cstdio>
#include <map>

#include "nn/ops.h"

namespace perfbench {

namespace {

using nn::Tensor;

/// The model's patch layout, reproduced (VisionTransformer::patchify is
/// private): [B, C*H*W] -> [B*T, C*p*p], patches in raster order.
Tensor patchify(const vit::VitConfig& cfg, const Tensor& images) {
  const int b = images.dim(0), hw = cfg.image_size, p = cfg.patch_size, grid = hw / p;
  const int t = cfg.tokens(), pd = cfg.patch_dim();
  Tensor out({b * t, pd});
  for (int img = 0; img < b; ++img) {
    const float* src = images.data() + static_cast<std::size_t>(img) * cfg.channels * hw * hw;
    for (int gy = 0; gy < grid; ++gy)
      for (int gx = 0; gx < grid; ++gx) {
        float* dst = out.data() + (static_cast<std::size_t>(img) * t + gy * grid + gx) * pd;
        int idx = 0;
        for (int c = 0; c < cfg.channels; ++c)
          for (int py = 0; py < p; ++py)
            for (int px = 0; px < p; ++px)
              dst[idx++] = src[(c * hw + gy * p + py) * hw + gx * p + px];
      }
  }
  return out;
}

/// Times `fn` into per-op accumulator `acc` and the span log.
template <typename Fn>
auto timed(std::map<std::string, double>& acc, const char* name, SpanLog* log, Fn&& fn) {
  Scoped span(log, name);
  const Clock::time_point t0 = Clock::now();
  auto out = fn();
  acc[name] += us_between(t0, Clock::now());
  return out;
}

/// Profile `model` on `images` ([batch, pixels]) over `reps` repetitions.
/// Spans of every call land in `log`.
OpProfile profile_forward(vit::VisionTransformer& model, const Tensor& images, int reps,
                          SpanLog* log) {
  const vit::VitConfig& cfg = model.config();
  const vit::VisionTransformer& cmodel = model;
  const int batch = images.dim(0), tokens = cfg.tokens(), dim = cfg.dim;
  const int hidden = dim * cfg.mlp_ratio;
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> fwd;
  bool exact = true;

  for (int r = 0; r < reps; ++r) {
    Tensor ref;
    {
      Scoped span(log, "vit.forward");
      const Clock::time_point t0 = Clock::now();
      ref = cmodel.infer(images);
      fwd.push_back(us_between(t0, Clock::now()));
    }

    // The same forward, one public sub-module infer at a time. The split
    // calls (qkv, proj, fc1, fc2) run again beside their parent to time them.
    std::map<std::string, double> acc;
    Scoped pass(log, "vit.op_pass");
    Tensor x = timed(acc, "vit.embed_us", log, [&] {
      Tensor e = model.patch_embed().infer(patchify(cfg, images));
      for (int b = 0; b < batch; ++b)
        for (int t = 0; t < tokens; ++t)
          for (int d = 0; d < dim; ++d)
            e[(static_cast<std::size_t>(b) * tokens + t) * dim + d] +=
                model.pos_embed().value[static_cast<std::size_t>(t) * dim + d];
      return e;
    });
    for (vit::EncoderBlock& blk : model.blocks()) {
      const Tensor a = timed(acc, "vit.norm_us", log, [&] { return blk.norm1().infer(x); });
      const Tensor msa = timed(acc, "nn.msa_us", log, [&] {
        return static_cast<const nn::MultiHeadSelfAttention&>(blk.msa()).infer(a, batch, tokens);
      });
      timed(acc, "nn.qkv_us", log, [&] { return blk.msa().qkv().infer(a); });
      timed(acc, "nn.proj_us", log, [&] { return blk.msa().proj().infer(a); });
      const Tensor x1 = timed(acc, "vit.residual_us", log,
                              [&] { return blk.residual_quant1().infer(nn::add(x, msa)); });
      const Tensor h = timed(acc, "vit.norm_us", log, [&] { return blk.norm2().infer(x1); });
      const Tensor mlp = timed(acc, "nn.mlp_us", log,
                               [&] { return static_cast<const vit::Mlp&>(blk.mlp()).infer(h); });
      const Tensor f1 = timed(acc, "nn.fc1_us", log, [&] { return blk.mlp().fc1().infer(h); });
      timed(acc, "nn.fc2_us", log, [&] { return blk.mlp().fc2().infer(f1); });
      x = timed(acc, "vit.residual_us", log,
                [&] { return blk.residual_quant2().infer(nn::add(x1, mlp)); });
    }
    const Tensor logits = timed(acc, "vit.head_us", log, [&] {
      const Tensor n = model.final_norm().infer(x);
      Tensor pooled({batch, dim});
      for (int b = 0; b < batch; ++b)
        for (int t = 0; t < tokens; ++t)
          for (int d = 0; d < dim; ++d)
            pooled.at(b, d) += n[(static_cast<std::size_t>(b) * tokens + t) * dim + d] /
                               static_cast<float>(tokens);
      return model.head().infer(pooled);
    });
    for (std::size_t i = 0; i < ref.size(); ++i) exact = exact && logits[i] == ref[i];

    acc["nn.attn_core_us"] = acc["nn.msa_us"] - acc["nn.qkv_us"] - acc["nn.proj_us"];
    acc["vit.gelu_us"] = acc["nn.mlp_us"] - acc["nn.fc1_us"] - acc["nn.fc2_us"];
    for (const auto& [name, us] : acc) per_rep[name].push_back(us);
  }

  OpProfile p;
  double sum = 0;
  for (const std::string& op : profile_ops()) {
    p.op_us.push_back(median(per_rep[op]));
    sum += p.op_us.back();
  }
  p.forward_us = median(fwd);
  p.op_sum_ratio = p.forward_us > 0 ? sum / p.forward_us : 0;
  const double m = static_cast<double>(batch) * tokens;
  p.linear_flops = static_cast<double>(cfg.layers) * 2.0 * m *
                   (static_cast<double>(dim) * 3 * dim + static_cast<double>(dim) * dim +
                    2.0 * static_cast<double>(dim) * hidden);
  p.bit_exact = exact;
  return p;
}

}  // namespace

void report_profile(Report& rep, const std::string& variant, const std::string& tag,
                    const OpProfile* p) {
  const std::string suffix = "." + variant + "." + tag;
  for (std::size_t i = 0; i < profile_ops().size(); ++i)
    rep.add(profile_ops()[i] + suffix, p ? p->op_us[i] : 0.0, "us");
  rep.add("vit.forward_us" + suffix, p ? p->forward_us : 0.0, "us");
}

void profile_variant(vit::VisionTransformer& model, const std::string& variant,
                     const nn::Tensor& batch, int reps, SpanLog& log, Report& rep,
                     ProfileSummary& sum) {
  const nn::Tensor one = nn::Tensor::borrow({1, batch.dim(1)}, batch.data());
  // Batch 1 is cheap: more repetitions for the same time.
  const struct {
    const char* tag;
    const nn::Tensor* input;
    int reps;
  } shapes[] = {{"b1", &one, reps * 5}, {"bmax", &batch, reps}};
  for (const auto& shape : shapes) {
    const OpProfile p = profile_forward(model, *shape.input, shape.reps, &log);
    report_profile(rep, variant, shape.tag, &p);
    std::fprintf(stderr, "  profile %s %s: forward %.1f us, op sum ratio %.3f%s\n",
                 variant.c_str(), shape.tag, p.forward_us, p.op_sum_ratio,
                 p.bit_exact ? "" : " NOT BIT-EXACT");
    sum.bit_exact = sum.bit_exact && p.bit_exact;
    if (std::abs(p.op_sum_ratio - 1) > std::abs(sum.worst_ratio - 1)) sum.worst_ratio = p.op_sum_ratio;
    if (variant == "fp32" && shape.input == &batch) {
      const double linear_us = p.op_us[1] + p.op_us[3] + p.op_us[5] + p.op_us[7];  // qkv proj fc1 fc2
      sum.gemm_gflops = linear_us > 0 ? p.linear_flops / linear_us / 1000 : 0;
    }
  }
}

nn::Tensor stack_images(const std::vector<std::vector<float>>& images, int n) {
  const int pixels = static_cast<int>(images[0].size());
  nn::Tensor t({n, pixels});
  for (int r = 0; r < n; ++r)
    std::copy(images[static_cast<std::size_t>(r)].begin(), images[static_cast<std::size_t>(r)].end(),
              t.data() + static_cast<std::size_t>(r) * pixels);
  return t;
}

}  // namespace perfbench
