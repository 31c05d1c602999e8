#pragma once
// model.h — the BN/LN Vision Transformer with explicit backward.
//
// Architecture (pre-norm encoder, mean-pool classifier):
//   patchify -> Linear patch embed -> +pos embed
//   L x [ norm -> MSA -> +residual -> Rq ; norm -> MLP -> +residual -> Rq ]
//   final norm -> mean pool -> Linear head
//
// Rq are the residual LSQ quantizers (the R16 knob). Following common
// low-precision-transformer practice the patch embedding and the classifier
// head stay full precision; all encoder linears carry the W/A quantizers.
// Block outputs are cached as the feature taps for KD.

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/attention.h"
#include "nn/count_table.h"
#include "nn/module.h"
#include "vit/config.h"

namespace ascend::vit {

/// Norm layer dispatching between LayerNorm and BatchNorm.
class NormLayer {
 public:
  NormLayer(NormKind kind, int features);
  nn::Tensor forward(const nn::Tensor& x, bool training);
  nn::Tensor backward(const nn::Tensor& grad);
  nn::Tensor infer(const nn::Tensor& x) const;  ///< re-entrant eval-mode path
  void collect_params(std::vector<nn::Param*>& out);
  NormKind kind() const { return kind_; }
  /// Underlying layer (nullptr when this NormLayer dispatches the other
  /// kind) — exposed for serving-state copies (BN running statistics).
  nn::BatchNorm* batch_norm() { return bn_.get(); }
  nn::LayerNorm* layer_norm() { return ln_.get(); }

 private:
  NormKind kind_;
  std::unique_ptr<nn::LayerNorm> ln_;
  std::unique_ptr<nn::BatchNorm> bn_;
};

/// The GELU substituted on the const infer path (the SC GELU of
/// vit/servable.h): a block given as an nn::CountTable over its input's
/// thermometer count (the LUT), which the MLP applies itself, or any other
/// block as a callable (the circuit emulator). Empty = no substitution.
struct GeluHook {
  GeluHook() = default;
  // Implicit, so a lambda or a table passes where a hook is expected.
  template <class F>
    requires std::is_constructible_v<nn::InferHook, F>
  GeluHook(F f) : fn(std::move(f)) {}
  GeluHook(std::shared_ptr<const nn::CountTable> t) : table(std::move(t)) {}

  nn::InferHook fn;
  std::shared_ptr<const nn::CountTable> table;
};

/// MLP block: fc1 -> GELU -> fc2, with an optional GELU hook (SC
/// gate-assisted-SI GELU) that only the const infer() path applies;
/// forward()/backward() always run the float GELU. When fc2 serves ternary
/// codes (nn::Linear::serves_ternary_codes), infer() decides fc2's 0/±1
/// input codes straight from fc1's output and hands them to
/// fc2.infer_codes: through the fc2 input quantizer's GELU code cuts without
/// a hook, and through one count -> code table (the hook's table composed
/// with fc2's input quantizer, LsqQuantizer::frozen_code_table) under a
/// table hook. Either is bit-exact with the GELU followed by fc2.infer.
class Mlp {
 public:
  Mlp(int dim, int hidden, nn::Rng& rng);
  nn::Tensor forward(const nn::Tensor& x);
  nn::Tensor backward(const nn::Tensor& grad);
  nn::Tensor infer(const nn::Tensor& x) const;  ///< re-entrant; hook invoked per call
  void collect_params(std::vector<nn::Param*>& out);
  nn::Linear& fc1() { return fc1_; }
  nn::Linear& fc2() { return fc2_; }
  /// GELU replacement for infer(); an empty hook clears it.
  void set_gelu_hook(GeluHook hook) noexcept { hook_ = std::move(hook); }

 private:
  nn::Linear fc1_, fc2_;
  nn::Gelu gelu_;
  GeluHook hook_;
};

/// One transformer encoder block.
class EncoderBlock {
 public:
  EncoderBlock(const VitConfig& cfg, nn::Rng& rng);
  nn::Tensor forward(const nn::Tensor& x, int batch, int tokens, bool training);
  nn::Tensor backward(const nn::Tensor& grad);
  nn::Tensor infer(const nn::Tensor& x, int batch, int tokens) const;
  void collect_params(std::vector<nn::Param*>& out);

  nn::MultiHeadSelfAttention& msa() { return msa_; }
  Mlp& mlp() { return mlp_; }
  nn::LsqQuantizer& residual_quant1() { return rq1_; }
  nn::LsqQuantizer& residual_quant2() { return rq2_; }
  NormLayer& norm1() { return norm1_; }
  NormLayer& norm2() { return norm2_; }

 private:
  NormLayer norm1_, norm2_;
  nn::MultiHeadSelfAttention msa_;
  Mlp mlp_;
  nn::LsqQuantizer rq1_, rq2_;
};

class VisionTransformer {
 public:
  VisionTransformer(const VitConfig& cfg, std::uint64_t seed);

  const VitConfig& config() const { return cfg_; }

  /// images: [B, channels*H*W] raw pixels in [0,1]-ish. Returns logits [B, classes].
  nn::Tensor forward(const nn::Tensor& images, bool training);
  /// Const, re-entrant inference forward: bit-exact with
  /// forward(images, /*training=*/false) while no hook is installed, but
  /// writes no member state (no block_outputs_ feature taps, no backward
  /// caches), so any number of threads may run it concurrently. Installed
  /// hooks act on this path only; they are invoked per call and must be
  /// thread-safe themselves.
  nn::Tensor infer(const nn::Tensor& images) const;
  /// Backward from the logits gradient; optional per-block feature gradients
  /// (KD MSE taps) are added at the corresponding block boundary.
  void backward(const nn::Tensor& grad_logits,
                const std::vector<nn::Tensor>* feature_grads = nullptr);

  /// Block outputs [B*T, dim] cached by the last forward (KD feature taps).
  const std::vector<nn::Tensor>& block_outputs() const { return block_outputs_; }

  /// Trainable parameters (includes LSQ steps once initialised by a forward).
  std::vector<nn::Param*> params();
  /// Architecture parameters only (no quantizer steps) — used for stage
  /// initialisation copies along the progressive-quantization pipeline.
  std::vector<nn::Param*> structural_params();
  /// Copy structural parameters from a same-topology model.
  void copy_weights_from(VisionTransformer& other);

  /// Write a versioned binary checkpoint: topology + precision config,
  /// every trainable parameter, LSQ calibration state, BN running stats
  /// (see docs/checkpoint.md for the format). Defined in the serialize
  /// library (src/serialize/model_io.cpp) — link `serialize` (or `core`) to
  /// use it; thin wrapper over serialize::save_model.
  void save(const std::string& path);
  /// Reconstruct a model from a checkpoint written by save(): topology and
  /// precision come from the file's config block, weights/calibration/stats
  /// are restored eagerly (heap-owned; composes with HeapScope so nothing
  /// lands in an activation arena). `loaded->infer(x)` is bit-exact with the
  /// saved model's infer. Throws serialize::CheckpointError on a bad file.
  /// Defined in the serialize library; wrapper over serialize::load_model.
  /// For zero-copy serving straight off a read-only mapping, see
  /// serialize::load_model_mmap.
  static std::unique_ptr<VisionTransformer> load(const std::string& path);

  /// Deep serving copy: a fresh model with this model's topology, weights,
  /// precision spec, quantizer calibration (specs + learned steps), BN
  /// running statistics and softmax kind — `clone->infer(x)` is bit-exact
  /// with `this->infer(x)`. Inference hooks and frozen serving snapshots are
  /// NOT copied: the clone starts hook-free and re-freezes lazily, so
  /// serving adapters can install per-variant hooks / precision on private
  /// copies of one trained model (see vit/servable.h).
  std::unique_ptr<VisionTransformer> clone_for_serving();

  /// Configure the W/A/R quantizers on every encoder block.
  void apply_precision(const PrecisionSpec& spec);
  const PrecisionSpec& precision() const { return precision_; }

  /// Switch every block between exact and iterative-approximate softmax.
  void set_softmax_kind(nn::SoftmaxKind kind);
  /// Installs the softmax and GELU hooks of infer() (the SC blocks, see
  /// vit/servable.h) in every encoder block; forward() and backward() never
  /// see a hook. An empty hook clears its slot: set_infer_hooks({}, {})
  /// clears both and cannot throw. Copying a non-empty hook may allocate;
  /// if that throws, earlier blocks keep the new hooks.
  void set_infer_hooks(const nn::SoftmaxTileHook& softmax, const GeluHook& gelu);

  std::vector<EncoderBlock>& blocks() { return blocks_; }
  /// Structural sub-layers, exposed for the checkpoint walker
  /// (serialize/model_io.cpp) and serving-state copies.
  nn::Linear& patch_embed() { return patch_embed_; }
  nn::Param& pos_embed() { return pos_embed_; }
  NormLayer& final_norm() { return final_norm_; }
  nn::Linear& head() { return head_; }

 private:
  nn::Tensor patchify(const nn::Tensor& images) const;

  VitConfig cfg_;
  nn::Rng rng_;
  PrecisionSpec precision_;
  nn::Linear patch_embed_;
  nn::Param pos_embed_;  // [tokens, dim]
  std::vector<EncoderBlock> blocks_;
  NormLayer final_norm_;
  nn::Linear head_;

  // Forward caches.
  int cached_batch_ = 0;
  std::vector<nn::Tensor> block_outputs_;
  nn::Tensor cached_pooled_;
};

}  // namespace ascend::vit
