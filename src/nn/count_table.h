#pragma once
// count_table.h — a nonlinear block served as a table over thermometer counts.
//
// The LUT-served SC blocks are functions of one integer: the ones-count n of
// the input encoded on an L-bit thermometer grid (sc::ThermValue::encode).
// A CountTable holds such a block as its L+1 outputs value[n]. It is a plain
// nn-side value, so a layer can compose it with what follows — vit::Mlp
// folds fc2's ternary input quantizer into it (ternary_codes), which turns
// the SC GELU and fc2's activation quantizer into one count -> code table,
// the software form of the paper's selective interconnect.
//
// The encode is monotone in x, so "n >= j" is "x >= cut_j" for a float cut
// per count; the wide GEMM tiers apply a table as one compare-and-select per
// cut where the value changes, with no division and no gather. The base tier
// keeps the scalar encode-and-look-up loop, the oracle the wide tiers are
// tested against.

#include <cstddef>
#include <vector>

#include "sc/therm_stream.h"

namespace ascend::nn {

/// cuts[j - 1] = the least float x whose sc::ThermValue::encode(x, lin,
/// alpha).ones is at least j, for j in [1, lin]: for every float x but NaN,
/// encode(x, lin, alpha).ones == #{j : x >= cuts[j - 1]}, and NaN, which
/// encodes to 0 ones, passes no cut. Nondecreasing; equal neighbours mark a
/// count the encode skips. Throws std::invalid_argument for lin <= 0 or
/// alpha <= 0.
std::vector<float> count_cuts(int lin, double alpha);

/// value[n] over the ones-count n of x on an (lin, alpha_in) thermometer grid.
class CountTable {
 public:
  CountTable() = default;
  /// `values` holds lin + 1 entries; throws std::invalid_argument otherwise,
  /// or for lin <= 0 or alpha_in <= 0. Every table gets a fresh id().
  CountTable(int lin, double alpha_in, std::vector<float> values);

  int lin() const { return lin_; }
  double alpha_in() const { return alpha_in_; }
  const std::vector<float>& values() const { return values_; }
  /// Nonzero for a constructed table, distinct from every other constructed
  /// table's (copies share it: a table never changes after construction).
  unsigned id() const { return id_; }

  /// value[encode(x, lin, alpha_in).ones].
  float operator()(float x) const {
    return values_[static_cast<std::size_t>(sc::ThermValue::encode(x, lin_, alpha_in_).ones)];
  }
  /// out[i] = (*this)(x[i]) for i in [0, n); `out` may alias `x`. Runs the
  /// active GEMM tier's kernel (gemm::kernel()); every tier gives the same
  /// bits.
  void apply(const float* x, std::size_t n, float* out) const;

  /// The table of ternary_code(value[n], half_step): this block followed by
  /// a W2A2 linear's input quantizer (see nn::ternary_code).
  CountTable ternary_codes(float half_step) const;

 private:
  int lin_ = 0;
  double alpha_in_ = 1.0;
  std::vector<float> values_;
  unsigned id_ = 0;
  // The table as a step function of x: value[0] below the first cut, then
  // step_value_[s] from step_cut_[s] on; only the cuts where the value
  // changes are kept.
  std::vector<float> step_cut_, step_value_;
};

}  // namespace ascend::nn
