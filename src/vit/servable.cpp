#include "vit/servable.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "sc/gate_si.h"
#include "sc/softmax_iter.h"

namespace ascend::vit {

namespace {

using nn::Tensor;

/// Servable over a VisionTransformer — an adopted serving model or a
/// caller-owned instance — with optional SC nonlinear-block hooks installed
/// on it for the servable's lifetime. infer() is const and re-entrant: the
/// model's const infer path writes no member state, and the hooks only read
/// immutable LUTs (or copy per-call emulator instances from an immutable
/// prototype).
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

  /// Installs the SC hooks from `cfg`; the model's hooks belong to this
  /// servable until destruction.
  void install_sc_hooks(const ScInferenceConfig& cfg, const ScServableOptions& opts) {
    if (!opts.pool && !owned_pool_)  // hardware_concurrency() 0 clamps to 1
      owned_pool_ = std::make_unique<runtime::ThreadPool>(
          static_cast<int>(std::thread::hardware_concurrency()));
    runtime::ThreadPool* pool = opts.pool ? opts.pool : owned_pool_.get();
    runtime::TfCache* cache = opts.cache ? opts.cache : &runtime::global_tf_cache();
    hooks_installed_ = true;
    try {
      if (cfg.use_sc_softmax) {
        sc::SoftmaxIterConfig sm = cfg.softmax;
        sm.m = model_->config().tokens();
        sm.validate();
        const runtime::SoftmaxLut* lut = opts.use_tf_cache ? &cache->softmax(sm) : nullptr;
        model_->set_softmax_hook([sm, lut, pool](const Tensor& scores) {
          const int rows = scores.dim(0), m = scores.dim(1);
          // `out` is carved from the forward's arena when one is installed
          // and the LUT reads the float scores directly, so at steady state
          // this hook performs zero heap allocations (the emulated
          // softmax_iterative_sc fallback allocates internally).
          Tensor out = Tensor::uninitialized({rows, m});
          pool->parallel_for(0, rows, [&](int lo, int hi) {
            const std::size_t off = static_cast<std::size_t>(lo) * static_cast<std::size_t>(m);
            if (lut) {
              lut->rows(scores.data() + off, hi - lo, out.data() + off);
              return;
            }
            std::vector<double> row(static_cast<std::size_t>(m));
            for (int r = lo; r < hi; ++r) {
              for (int c = 0; c < m; ++c) row[static_cast<std::size_t>(c)] = scores.at(r, c);
              const auto y = sc::softmax_iterative_sc(row, sm);
              for (int c = 0; c < m; ++c)
                out.at(r, c) = static_cast<float>(y[static_cast<std::size_t>(c)]);
            }
          });
          return out;
        });
      }
      if (cfg.use_sc_gelu) {
        const runtime::GateSiLut* lut = nullptr;
        std::shared_ptr<const sc::GateAssistedSI> proto;
        if (opts.use_tf_cache)
          lut = &cache->gelu(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16);
        else
          proto = std::make_shared<const sc::GateAssistedSI>(
              sc::make_gelu_block(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16));
        model_->set_gelu_hook([lut, proto, pool](const Tensor& x) {
          // Per-call emulator instance: concurrent forwards never share one
          // (reads within the call are const, so the chunks may share it).
          std::unique_ptr<const sc::GateAssistedSI> block;
          if (!lut) block = std::make_unique<const sc::GateAssistedSI>(*proto);
          Tensor y = Tensor::uninitialized(x.shape());
          pool->parallel_for(0, static_cast<int>(x.size()), [&](int lo, int hi) {
            if (lut) {
              lut->apply(x.data() + lo, static_cast<std::size_t>(hi - lo), y.data() + lo);
              return;
            }
            for (int i = lo; i < hi; ++i) {
              const std::size_t s = static_cast<std::size_t>(i);
              y[s] = static_cast<float>(block->transfer(x[s]));
            }
          });
          return y;
        });
      }
    } catch (...) {
      // A half-installed hook must not outlive the failed construction.
      model_->clear_hooks();
      hooks_installed_ = false;
      throw;
    }
  }

  ~VitServable() override {
    if (hooks_installed_) model_->clear_hooks();
  }

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
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  std::string variant_id_;
  int input_dim_ = 0;
  int output_dim_ = 0;
  bool hooks_installed_ = false;
};

}  // namespace

std::shared_ptr<runtime::Servable> make_servable(std::unique_ptr<VisionTransformer> model,
                                                 runtime::VariantKind kind,
                                                 std::string variant_id,
                                                 const ScInferenceConfig& sc,
                                                 ScServableOptions sc_opts,
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
      sc_opts.use_tf_cache = kind == VariantKind::kScLut;
      servable->install_sc_hooks(sc, sc_opts);
      break;
  }
  return servable;
}

std::shared_ptr<runtime::Servable> make_sc_servable_in_place(VisionTransformer& model,
                                                             const ScInferenceConfig& cfg,
                                                             ScServableOptions opts,
                                                             std::string variant_id) {
  auto servable = std::make_shared<VitServable>(&model, nullptr, std::move(variant_id));
  servable->install_sc_hooks(cfg, opts);
  return servable;
}

}  // namespace ascend::vit
