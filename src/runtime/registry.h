#pragma once
// registry.h — named servable variants with atomic hot-swap.
//
// A ModelRegistry maps variant ids to Servables. publish() registers a new
// variant or atomically replaces a live one; each replacement bumps the
// variant's generation counter. Readers (the engine's forward workers) take
// a shared_ptr snapshot under a briefly-held mutex and run the forward
// outside any lock, so re-publishing a variant — re-freezing snapshots,
// swapping weights, changing fidelity — never blocks in-flight forwards:
// they finish on the generation they grabbed, and the old servable is
// destroyed when its last in-flight reference drops.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/servable.h"

namespace ascend::vit {
struct ScInferenceConfig;
struct ScServableOptions;
}  // namespace ascend::vit

namespace ascend::runtime {

/// Serving personality of a ViT variant. vit::make_servable maps each kind
/// to its precision/hook policy; ModelRegistry::register_from_file passes it
/// through, so the checkpoint supplies weights + calibration and the kind
/// picks how the published variant serves them.
enum class VariantKind {
  kFp32,           ///< fake-quantization stripped, dense GEMM (fidelity ceiling)
  kPackedTernary,  ///< W2A2 served as ternary codes through the blocked GEMM
  kScLut,          ///< SC softmax/GELU from the transfer-function LUT cache
  kScEmulated,     ///< SC nonlinearities per-activation circuit emulation
};

/// Thrown (and recorded as a rollback) when a canary-validated publish
/// rejects the candidate servable: the canary forward threw, produced
/// non-finite or mis-shaped logits, or diverged from the incumbent.
struct CanaryError : std::runtime_error {
  explicit CanaryError(const std::string& why)
      : std::runtime_error("canary validation failed: " + why) {}
};

/// Validation run by publish_checked before a candidate goes live. The
/// golden input is served through the candidate (and, for comparison, the
/// incumbent) on the publishing thread.
struct CanaryOptions {
  /// [B, input_dim] probe batch; must be non-empty.
  nn::Tensor golden_input;
  /// Reject when any |candidate - incumbent| logit differs by more than
  /// this. Negative: skip the incumbent comparison (still validates the
  /// candidate forward itself). Ignored when no incumbent is live.
  double max_abs_logit_diff = -1.0;
  /// Reject when the candidate's argmax disagrees with the incumbent's on
  /// any golden row (only checked when an incumbent is live).
  bool require_label_match = false;
};

/// Outcome of a supervised publish. On rejection the incumbent keeps
/// serving and `generation` reports its (unchanged) generation.
struct PublishResult {
  bool published = false;
  std::uint64_t generation = 0;
  std::string error;  ///< empty on success; the rejection reason otherwise
};

struct RegisterFromFileOptions {
  /// SC variant knobs (kScLut / kScEmulated only); null = defaults. The
  /// pointees are only read during the register_from_file call.
  const vit::ScInferenceConfig* sc_config = nullptr;
  const vit::ScServableOptions* sc_options = nullptr;
  /// Canary-validate the cold-started servable before publishing: on
  /// rejection the incumbent keeps serving and register_from_file throws
  /// CanaryError. Null: publish unchecked (the pre-canary behaviour). The
  /// pointee is only read during the call.
  const CanaryOptions* canary = nullptr;
};

class ModelRegistry {
 public:
  /// Register `servable` under its variant_id(), or atomically replace the
  /// live servable of that id (hot-swap). Returns the variant's generation
  /// after the publish: 1 on first registration, incremented per swap.
  std::uint64_t publish(std::shared_ptr<const Servable> servable);

  /// Supervised hot-swap: run the canary (candidate forward on the golden
  /// input, finite/shape checks, optional divergence check against the live
  /// incumbent) and only then publish(). On any canary exception or
  /// divergence the candidate is discarded — the incumbent keeps serving on
  /// its old generation — and the rollback counter increments. Never throws
  /// for a canary rejection (the reason comes back in PublishResult::error);
  /// still throws std::invalid_argument for a null/unnamed servable.
  PublishResult publish_checked(std::shared_ptr<const Servable> servable,
                                const CanaryOptions& canary);

  /// Run the canary battery for `candidate` against the live incumbent of
  /// its variant_id WITHOUT publishing: candidate forward on the golden
  /// input, finite/shape checks, optional divergence/label checks. Throws
  /// CanaryError (or the forward's own exception) on rejection; returns
  /// normally on acceptance. This is the validation half of publish_checked,
  /// exposed so coordinated multi-shard publishes (serve::ShardSet) can
  /// validate every shard's candidate before committing any of them.
  void validate(const Servable& candidate, const CanaryOptions& canary) const;

  /// Successful publishes (plain and checked) across all variants.
  std::uint64_t publishes() const { return publishes_.load(); }
  /// Rejected supervised publishes: canary failures plus register_from_file
  /// attempts that failed after the registry had a chance to swap (the
  /// incumbent kept serving each time).
  std::uint64_t rollbacks() const { return rollbacks_.load(); }
  /// Record a rejected supervised publish. Internal — used by
  /// register_from_file (which lives in the serialize library) when a
  /// cold-start load or canary fails and the incumbent is kept.
  void count_rollback() { rollbacks_.fetch_add(1); }

  /// Cold-start a variant from a checkpoint file: load the model as
  /// zero-copy views into a read-only mmap of the file (the servable keeps
  /// the mapping alive across hot-swaps until the last in-flight forward
  /// drops it), shape it per `kind`, and publish() it under
  /// `variant_id` — including atomically hot-swapping a live variant to the
  /// fresh mapping. Throws serialize::CheckpointError on a bad file, kSchema
  /// also when vit::make_servable refuses the loaded model for `kind` (e.g.
  /// a non-W2-A2 file for kPackedTernary).
  /// Defined in the serialize library (src/serialize/model_io.cpp), which
  /// layers above this header — link `serialize` (or `core`) to use it.
  std::uint64_t register_from_file(const std::string& variant_id, const std::string& path,
                                   VariantKind kind, const RegisterFromFileOptions& opts = {});

  /// Snapshot of the live servable for `variant`. The returned pointer stays
  /// valid (and the servable alive) across any later publish.
  /// Throws UnknownVariantError on an unregistered id.
  std::shared_ptr<const Servable> get(const std::string& variant) const;

  /// Like get(), but returns nullptr instead of throwing.
  std::shared_ptr<const Servable> try_get(const std::string& variant) const;

  /// Current generation of `variant` (0 if never published).
  std::uint64_t generation(const std::string& variant) const;

  bool contains(const std::string& variant) const;
  std::size_t size() const;
  /// Registered ids in first-publish order (stable across hot-swaps).
  std::vector<std::string> variant_ids() const;

 private:
  struct Entry {
    std::shared_ptr<const Servable> servable;
    std::uint64_t generation = 0;
    std::size_t order = 0;  ///< first-publish rank, for variant_ids()
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> rollbacks_{0};
};

}  // namespace ascend::runtime
