#pragma once
// model_io.h — VisionTransformer <-> checkpoint mapping.
//
// Sits on top of the format layer (serialize/checkpoint.h) and knows the
// model: a deterministic walker assigns every piece of serving-relevant
// state a stable record name, and save/load round-trip through those names:
//
//   patch_embed.weight / .bias          head.weight / .bias
//   pos_embed
//   blocks.N.{norm1,norm2}.{gamma,beta[,running_mean,running_var]}
//   blocks.N.msa.{qkv,proj}.{weight,bias}
//   blocks.N.mlp.{fc1,fc2}.{weight,bias}
//   blocks.N.msa.{qkv,proj}.{wq,aq}.qstate      (LSQ calibration, 5 floats)
//   blocks.N.mlp.{fc1,fc2}.{wq,aq}.qstate
//   blocks.N.{rq1,rq2}.qstate                   (residual quantizers)
//
// Readers look records up by name and ignore any they do not know, so older
// files that still carry `<linear>.wq.packed` / `.packed_meta` (frozen sign
// planes, no longer written) load unchanged.
//
// Topology + precision travel in the config block (key=value lines), so
// load_model() reconstructs the full model from the file alone. Two load
// paths share all validation:
//   * load_model       — eager: every tensor copied onto the heap
//                        (HeapScope-guarded, so loading inside an arena
//                        scope never pins weights to a resettable slab);
//   * load_model_mmap  — zero-copy: weights / BN stats become borrowed
//                        views into a read-only mapping; the returned
//                        MappedModel carries the mapping and it MUST outlive
//                        the model (serving anchors it in the Servable, see
//                        vit::make_servable).
// Both produce models whose infer() is bit-exact with the saved model's.

#include <memory>
#include <string>

#include "serialize/checkpoint.h"
#include "vit/model.h"

namespace ascend::serialize {

/// Write `model` (topology, precision, weights, LSQ calibration, BN running
/// statistics) to a version-1 checkpoint at `path`.
void save_model(vit::VisionTransformer& model, const std::string& path);

/// Reconstruct a model eagerly from a checkpoint written by save_model.
/// Throws CheckpointError (kSchema for a well-formed container whose records
/// don't match the declared topology).
std::unique_ptr<vit::VisionTransformer> load_model(const std::string& path);

/// A model whose weight tensors are borrowed views into `mapping`. Keep
/// `mapping` alive for as long as the model (or anything cloned *shallowly*
/// from it) can run a forward; dropping the model first is always safe.
struct MappedModel {
  std::unique_ptr<vit::VisionTransformer> model;
  std::shared_ptr<MmapCheckpoint> mapping;
};

/// Zero-copy load: parameters and BN running statistics are served straight
/// out of the read-only mapping (Tensor::borrow); mutable training state
/// (grads, Adam moments) stays heap-owned and untouched by serving.
MappedModel load_model_mmap(const std::string& path);

}  // namespace ascend::serialize
