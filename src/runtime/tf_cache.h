#pragma once
// tf_cache.h — transfer-function LUT cache for the SC nonlinear blocks.
//
// The thermometer datapath's nonlinear blocks are pure functions of small
// integer counts: a gate-assisted SI block maps an input ones-count to an
// output ones-count, and every re-scaling block inside the iterative softmax
// circuit maps a count on one static (length, alpha) grid to a count on
// another. The classic-SC baselines (FSM softmax, Bernstein ReSC) are pure
// functions of their inputs too once the SNG seeds are fixed, because every
// LFSR sample sequence is determined by the configuration. Re-emulating a
// circuit per activation (or per design-space-exploration sweep point)
// therefore repeats the same tiny computations millions of times. This module
// tabulates each block's response once per configuration — by *running the
// circuit emulator* over every reachable input, so the emulator stays the
// ground truth — and serves inference and the DSE sweeps from the tables.
// tests/test_runtime.cpp asserts bit-exact agreement with the sc:: emulators
// for every LUT class below.
//
// Cache entries are immutable once built: a LUT is frozen at construction and
// never invalidated, because its key encodes everything the tabulated
// function depends on (block parameters, seeds, bitstream lengths). Contrast
// with the nn-layer frozen weights (nn::LsqQuantizer::frozen_weight), which
// memoize a function of *mutable* training state and therefore need explicit
// thaw-on-train invalidation.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/count_table.h"
#include "sc/bernstein.h"
#include "sc/gate_si.h"
#include "sc/softmax_fsm.h"
#include "sc/softmax_iter.h"

namespace ascend::runtime {

/// Tabulated gate-assisted SI response: out_[n] = decoded output for input
/// ones-count n. Built by evaluating the block's count-level circuit (itself
/// test-proven equal to the bit-level interval logic) at every n in [0, Lin].
/// Works for any synthesized block, not just the GELU of Table III.
class GateSiLut {
 public:
  explicit GateSiLut(const sc::GateAssistedSI& block);

  /// Bit-exact with block.transfer(x): same input quantizer, tabled response.
  double operator()(double x) const {
    return out_[static_cast<std::size_t>(sc::ThermValue::encode(x, lin_, alpha_in_).ones)];
  }

  int lin() const { return lin_; }
  double alpha_in() const { return alpha_in_; }
  const std::vector<double>& table() const { return out_; }
  /// The response rounded to float as an nn-side table, whose apply() is
  /// the batch twin of operator(): value(x) == static_cast<float>((*this)(x)).
  /// The serving GELU hook hands it to the MLP (see vit::GeluHook).
  const nn::CountTable& count_table() const { return out_f_; }

 private:
  int lin_;
  double alpha_in_;
  std::vector<double> out_;  // lin_ + 1 entries
  nn::CountTable out_f_;     // out_ rounded to float
};

/// Tabulated iterative-softmax datapath (Fig. 5), served in the count
/// domain. Every alpha is static per config, so one iteration is pure integer
/// arithmetic on ones-counts: MUL-1 is z = qx*qy + Lz/2 on signed levels,
/// BSN-1 plus the s1 sub-sampler is one row sum and one divide, and MUL-2's
/// count n = qy*qs + Lw/2 indexes a table that folds in the s2 sub-sampler,
/// the negate and the -y*sum(z)/k re-scaling block. The other three
/// re-scaling blocks are count -> count tables too, so an element costs one
/// multiply-add per MUL and four gathers per iteration. Every table is built
/// by running the sc:: circuit emulator over its reachable inputs, and the
/// constructor derives the bundle lengths from the emulator's own op chain.
class SoftmaxLut {
 public:
  /// Throws std::invalid_argument for an invalid config, and for one whose
  /// BSN-1 input (Lsum) or MUL-2 output (Lw) does not fit in int: the kernel
  /// runs on int32 counts.
  explicit SoftmaxLut(sc::SoftmaxIterConfig cfg);

  /// Bit-exact with sc::softmax_iterative_sc(x, config()).
  std::vector<double> operator()(const std::vector<double>& x) const;

  /// Buffer-reuse twin: reads config().m values from `x`, writes config().m
  /// values to `out` (may alias `x`). Allocation-free at steady state.
  void operator()(const double* x, double* out) const;

  /// Row-batched float entry for the serving softmax hook (one attention
  /// head's score tile per call): `rows` consecutive rows of config().m
  /// scores. Each output row equals the double overload's
  /// result on the widened row, cast to float. `out` may alias `scores`.
  /// On the wide GEMM tiers (gemm::kernel()) groups of 16 (avx512) or 8
  /// (avx2) rows run side by side, one row per SIMD lane, with the rows left
  /// over on the scalar kernel; the base tier runs every row on the scalar
  /// kernel, and every tier gives the same bits.
  void rows(const float* scores, int rows, float* out) const;

  const sc::SoftmaxIterConfig& config() const { return cfg_; }
  const sc::SoftmaxIterLayout& layout() const { return lay_; }

 private:
  /// The one kernel behind every entry point.
  template <typename T>
  void run(const T* x, int rows, T* out) const;

  sc::SoftmaxIterConfig cfg_;
  sc::SoftmaxIterLayout lay_;
  int y0_ones_ = 0;  // encode(1/m, By, alpha_y)
  // Count-domain constants: half-lengths turn counts into signed levels.
  int hx_ = 0, hy_ = 0, hz_ = 0;  // Bx/2, By/2, Lz/2
  int s1_round_ = 0;              // s1 - 1 - tap offset: ssum = (sum + s1_round_) / s1
  int hs_ = 0;                    // Lsum_sub/2
  int hw_ = 0;                    // Lw/2
  // Count -> count tables.
  std::vector<int> lut_y_;      // y operand (By grid)        -> La grid
  std::vector<int> lut_zk_;     // z/k operand (Lz grid)      -> Lb grid
  std::vector<int> lut_w_;      // MUL-2 count n in [0, Lw]   -> Lc grid (s2, negate, /k folded)
  std::vector<int> lut_close_;  // BSN-2 output (Lconcat)     -> By grid
  std::vector<double> y_value_; // decode table for the final (By, alpha_y) grid
  // What the lane-wide kernels read instead: the x encode as float cuts
  // (nn::count_cuts), lut_y_[y] + lut_zk_[qx*qy + Lz/2] folded into one
  // table at (qx + Bx/2) * (By + 1) + y, and y_value_ rounded to float.
  // lut_xy_ stays empty when a config is too large for the lanes.
  std::vector<float> x_cut_;
  std::vector<int> lut_xy_;
  std::vector<float> y_value_f_;

  friend struct SoftmaxLaneKernels;
};

/// Tabulated FSM-softmax baseline (sc/softmax_fsm.h). Per element index the
/// LFSR sample sequence is fixed by the configured seed, so the SNG bit
/// pattern — and therefore the exponential FSM's output count — is a step
/// function of the encoded probability whose breakpoints are exactly the
/// LFSR samples. The LUT stores, per element, the sorted sample thresholds
/// and the FSM ones-count for every reachable bit pattern; a lookup is a
/// binary search instead of a `bsl`-cycle FSM walk. The shift normalization
/// stays in exact integer arithmetic, so results are bit-exact with
/// sc::softmax_fsm.
class SoftmaxFsmLut {
 public:
  explicit SoftmaxFsmLut(const sc::FsmSoftmaxConfig& cfg);

  /// Bit-exact with sc::softmax_fsm(x, config()).
  std::vector<double> operator()(const std::vector<double>& x) const;

  const sc::FsmSoftmaxConfig& config() const { return cfg_; }

 private:
  sc::FsmSoftmaxConfig cfg_;
  double range_ = 0.0;  // SNG comparison range (2^width)
  std::vector<std::vector<double>> thresholds_;  // [m][bsl], sorted LFSR samples
  std::vector<std::vector<long long>> counts_;   // [m][bsl+1] FSM ones-counts
};

/// Tabulated Bernstein ReSC unit (sc/bernstein.h) at a fixed (bsl, seed).
/// The unit's stochastic output ones-count is a step function of the input
/// probability u: at cycle t the adder index is the number of input-SNG
/// samples below u * range, so it changes only when u crosses a sample /
/// 2^width threshold — an exact dyadic double, because every LFSR range is a
/// power of two. The LUT sweeps those thresholds in ascending order, updates
/// the affected cycle's multiplexed coefficient-stream bit incrementally, and
/// records the ones-count per plateau; a lookup is one binary search. The
/// comparison `sample < u * range` is exact in double arithmetic (u * 2^w is
/// a pure exponent shift), so results are bit-exact with
/// sc::BernsteinUnit::eval_stochastic at the same (bsl, seed).
class BernsteinLut {
 public:
  BernsteinLut(const sc::BernsteinUnit& unit, std::size_t bsl, std::uint64_t seed);

  /// Bit-exact with unit.eval_stochastic(u, bsl(), seed()).
  double operator()(double u) const;

  std::size_t bsl() const { return bsl_; }
  std::uint64_t seed() const { return seed_; }
  /// Number of plateaus of the tabulated step function (exposed for tests).
  std::size_t plateaus() const { return value_.size(); }

 private:
  std::size_t bsl_;
  std::uint64_t seed_;
  std::vector<double> breaks_;  // ascending dyadic thresholds sample / 2^width
  std::vector<double> value_;   // breaks_.size() + 1 plateau outputs (ones/bsl)
};

/// BernsteinLut wrapped in the affine input/output maps of a BernsteinGelu
/// block, replicating sc::BernsteinGelu::eval_stochastic bit for bit.
class BernsteinGeluLut {
 public:
  BernsteinGeluLut(const sc::BernsteinGelu& block, std::size_t bsl, std::uint64_t seed);

  /// Bit-exact with block.eval_stochastic(x, bsl(), seed()).
  double operator()(double x) const {
    const double u = (std::clamp(x, in_lo_, in_hi_) - in_lo_) / (in_hi_ - in_lo_);
    return out_lo_ + lut_(u) * (out_hi_ - out_lo_);
  }

  std::size_t bsl() const { return lut_.bsl(); }
  std::uint64_t seed() const { return lut_.seed(); }

 private:
  double in_lo_, in_hi_, out_lo_, out_hi_;
  BernsteinLut lut_;
};

/// Thread-safe per-configuration cache of the LUTs above.
///
/// Freeze/thaw semantics: lookups build the table on first use ("freeze") and
/// hand out stable references afterwards; entries are never invalidated
/// ("thawed") because every key encodes the full configuration the table
/// depends on — a changed block is a different key, never a stale entry. The
/// engine shares one cache across all its worker threads, and the DSE sweeps
/// share one cache across all their sweep points.
class TfCache {
 public:
  /// LUT for make_gelu_block(b, lo, hi, input_bsl).
  const GateSiLut& gelu(int b, double input_lo, double input_hi, int input_bsl);
  /// LUT for an arbitrary gate-assisted SI block, keyed automatically from
  /// the block's parameters and count table (FNV-1a over the table).
  const GateSiLut& gate_si(const sc::GateAssistedSI& block);
  const SoftmaxLut& softmax(const sc::SoftmaxIterConfig& cfg);
  const SoftmaxFsmLut& softmax_fsm(const sc::FsmSoftmaxConfig& cfg);
  /// LUT for a Bernstein GELU block at a fixed (bsl, seed); keyed by the
  /// block's coefficients, affine maps, bitstream length and seed.
  const BernsteinGeluLut& bernstein(const sc::BernsteinGelu& block, std::size_t bsl,
                                    std::uint64_t seed);

  std::size_t size() const;

 private:
  /// Shared lookup idiom: probe under the lock, build outside it (tables can
  /// be expensive), re-lock to publish; a racing builder's identical table is
  /// simply kept.
  template <typename T, typename Build>
  const T& get_or_build(std::map<std::string, std::unique_ptr<T>>& map, const std::string& key,
                        Build&& build);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<GateSiLut>> gelu_;
  std::map<std::string, std::unique_ptr<SoftmaxLut>> softmax_;
  std::map<std::string, std::unique_ptr<SoftmaxFsmLut>> softmax_fsm_;
  std::map<std::string, std::unique_ptr<BernsteinGeluLut>> bernstein_;
};

/// Process-wide cache shared by every engine (configs are tiny; entries are
/// immutable once built).
TfCache& global_tf_cache();

/// Stable cache keys (exposed for tests).
std::string softmax_cache_key(const sc::SoftmaxIterConfig& cfg);
std::string softmax_fsm_cache_key(const sc::FsmSoftmaxConfig& cfg);
std::string gate_si_cache_key(const sc::GateAssistedSI& block);
std::string bernstein_cache_key(const sc::BernsteinGelu& block, std::size_t bsl,
                                std::uint64_t seed);

// ---------------------------------------------------------------------------
// Cached MAE protocols — the paper-reproduction sweeps served from the cache.
// ---------------------------------------------------------------------------

/// sc::softmax_sc_mae with the per-design circuit emulation replaced by the
/// SoftmaxLut from `cache`. Same logit sampling, same accumulation order:
/// the result is bit-identical to the uncached protocol at the same seed.
double softmax_sc_mae_cached(const sc::SoftmaxIterConfig& cfg, int rows, std::uint64_t seed,
                             TfCache& cache);

/// Seeding protocol for the cached FSM-softmax MAE below.
enum class FsmSeedMode {
  /// The paper protocol: every test row re-seeds the SNGs
  /// (cfg.seed + 0x1234567 * row). The cache keeps one threshold/count table
  /// per row seed, so the numbers are bit-identical to sc::softmax_fsm_mae —
  /// but each table costs O(m * bsl^2) to build AND stays resident (the cache
  /// never evicts: one `rows`-row evaluation retains `rows` tables of
  /// O(m * bsl) entries each). Use a dedicated TfCache whose lifetime matches
  /// the protocol run, not global_tf_cache(); the mode only pays off when the
  /// same protocol (config, base seed) is evaluated repeatedly.
  kPerRowSeeds,
  /// Shared-seed protocol variant: every row draws from the same SNG
  /// sequences (cfg.seed), so a single table serves the whole protocol. Much
  /// faster, but a *different protocol* — callers printing these numbers MUST
  /// flag them as shared-seed, they are not comparable to the paper's.
  kSharedSeed,
};

/// FSM-softmax MAE served from `cache` under the chosen seeding protocol.
/// With kPerRowSeeds the result is bit-identical to
/// sc::softmax_fsm_mae(cfg, rows, seed).
double softmax_fsm_mae_cached(const sc::FsmSoftmaxConfig& cfg, int rows, std::uint64_t seed,
                              TfCache& cache, FsmSeedMode mode = FsmSeedMode::kPerRowSeeds);

}  // namespace ascend::runtime
