#include "vit/servable.h"

#include <stdexcept>
#include <utility>

#include "sc/gate_si.h"
#include "sc/softmax_iter.h"

namespace ascend::vit {

namespace {

using nn::SoftmaxTileHook;
using nn::Tensor;

/// The SC softmax of `cfg` over one head's score tile (rows of `tokens`
/// columns): rows of the LUT from `cache`, or the circuit emulator when
/// `cache` is null. Attention calls it inside its parallel head loop, so it
/// runs right there, with no pool hop.
SoftmaxTileHook sc_softmax_hook(const ScInferenceConfig& cfg, int tokens,
                                runtime::TfCache* cache) {
  sc::SoftmaxIterConfig sm = cfg.softmax;
  sm.m = tokens;
  sm.validate();
  if (cache) {
    // The LUT reads the float scores directly and writes into the caller's
    // tile, so this hook performs no heap allocation.
    const runtime::SoftmaxLut* lut = &cache->softmax(sm);
    return [lut](const float* scores, int rows, float* out) { lut->rows(scores, rows, out); };
  }
  return [sm](const float* scores, int rows, float* out) {
    const std::size_t m = static_cast<std::size_t>(sm.m);
    std::vector<double> row(m);
    for (int r = 0; r < rows; ++r) {
      const float* s = scores + static_cast<std::size_t>(r) * m;
      for (std::size_t c = 0; c < m; ++c) row[c] = s[c];
      const auto y = sc::softmax_iterative_sc(row, sm);
      float* o = out + static_cast<std::size_t>(r) * m;
      for (std::size_t c = 0; c < m; ++c) o[c] = static_cast<float>(y[c]);
    }
  };
}

/// The gate-assisted SI GELU of `cfg`: the LUT from `cache` as a count
/// table, which the MLP applies on the calling thread (fused with fc2's
/// input quantizer under W2A2), or, when `cache` is null, the circuit
/// emulator, spread over `pool` when one is given and run on the calling
/// thread otherwise.
GeluHook sc_gelu_hook(const ScInferenceConfig& cfg, runtime::TfCache* cache,
                      runtime::ThreadPool* pool) {
  if (cache)
    return std::make_shared<const nn::CountTable>(
        cache->gelu(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16).count_table());
  // transfer() is const: every forward and chunk reads this one block.
  auto block = std::make_shared<const sc::GateAssistedSI>(
      sc::make_gelu_block(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16));
  return [block, pool](const Tensor& x) {
    Tensor y = Tensor::uninitialized(x.shape());
    auto run = [&](int lo, int hi) {
      for (std::size_t i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi); ++i)
        y[i] = static_cast<float>(block->transfer(x[i]));
    };
    const int n = static_cast<int>(x.size());
    if (pool)
      pool->parallel_for(0, n, run);
    else
      run(0, n);
    return y;
  };
}

/// Servable over a VisionTransformer — an adopted serving model or a
/// caller-owned instance — with optional SC nonlinear-block hooks installed
/// on the model's infer path for the servable's lifetime. infer() is const
/// and re-entrant: the model's const infer path writes no member state, and
/// the hooks only read immutable LUTs or emulator blocks.
class VitServable final : public runtime::Servable {
 public:
  VitServable(VisionTransformer* model, std::unique_ptr<VisionTransformer> owned,
              std::string variant_id, std::shared_ptr<const void> retain = nullptr)
      : retain_(std::move(retain)),
        model_(model),
        owned_(std::move(owned)),
        variant_id_(std::move(variant_id)) {
    const VitConfig& cfg = model_->config();
    input_dim_ = cfg.channels * cfg.image_size * cfg.image_size;
    output_dim_ = cfg.classes;
  }

  /// Installs the SC hooks of `cfg`, served from the LUT cache when `lut`
  /// and by the circuit emulators otherwise. Both hooks are built — every
  /// config check passed — before the model changes; they then belong to
  /// this servable until destruction.
  void install_sc_hooks(const ScInferenceConfig& cfg, const ScServableOptions& opts, bool lut) {
    runtime::TfCache* cache = nullptr;  // null: the circuit emulators
    if (lut) cache = opts.cache ? opts.cache : &runtime::global_tf_cache();
    SoftmaxTileHook softmax;
    GeluHook gelu;
    if (cfg.use_sc_softmax) softmax = sc_softmax_hook(cfg, model_->config().tokens(), cache);
    if (cfg.use_sc_gelu) gelu = sc_gelu_hook(cfg, cache, opts.pool);
    model_->set_infer_hooks(softmax, gelu);
  }

  // Clearing cannot throw, and it also undoes a partial install that a
  // throwing hook copy left behind.
  ~VitServable() override { model_->set_infer_hooks({}, {}); }

  Tensor infer(const Tensor& batch) const override {
    return static_cast<const VisionTransformer*>(model_)->infer(batch);
  }
  int input_dim() const override { return input_dim_; }
  int output_dim() const override { return output_dim_; }
  const std::string& variant_id() const override { return variant_id_; }

 private:
  // Declared before owned_ so it is destroyed *after* the model: when the
  // model's weights are borrowed views into an mmap'd checkpoint, the anchor
  // (the MmapCheckpoint) must outlive every tensor pointing into it.
  std::shared_ptr<const void> retain_;
  VisionTransformer* model_;
  std::unique_ptr<VisionTransformer> owned_;
  std::string variant_id_;
  int input_dim_ = 0;
  int output_dim_ = 0;
};

}  // namespace

std::shared_ptr<runtime::Servable> make_servable(std::unique_ptr<VisionTransformer> model,
                                                 runtime::VariantKind kind,
                                                 std::string variant_id,
                                                 const ScInferenceConfig& sc,
                                                 const ScServableOptions& sc_opts,
                                                 std::shared_ptr<const void> retain) {
  using runtime::VariantKind;
  VisionTransformer* raw = model.get();
  auto servable = std::make_shared<VitServable>(raw, std::move(model), std::move(variant_id),
                                                std::move(retain));
  switch (kind) {
    case VariantKind::kFp32:
      raw->apply_precision(PrecisionSpec::fp());
      break;
    case VariantKind::kPackedTernary: {
      const PrecisionSpec& p = raw->precision();
      if (p.w_bsl != 2 || p.a_bsl != 2)
        throw std::invalid_argument("make_servable: W2A2 serving needs a W2-A2 model, got " +
                                    p.name());
      break;
    }
    case VariantKind::kScLut:
    case VariantKind::kScEmulated:
      servable->install_sc_hooks(sc, sc_opts, kind == VariantKind::kScLut);
      break;
  }
  return servable;
}

std::shared_ptr<runtime::Servable> make_sc_servable_in_place(VisionTransformer& model,
                                                             const ScInferenceConfig& cfg,
                                                             ScServableOptions opts,
                                                             std::string variant_id) {
  auto servable = std::make_shared<VitServable>(&model, nullptr, std::move(variant_id));
  servable->install_sc_hooks(cfg, opts, opts.use_tf_cache);
  return servable;
}

}  // namespace ascend::vit
