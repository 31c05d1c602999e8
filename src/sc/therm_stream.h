#pragma once
// therm_stream.h — deterministic thermometer-coded SC numbers.
//
// ASCEND's end-to-end datapath uses the deterministic thermometer format of
// [10]/[5]/[15]: an L-bit parallel bundle where all 1s precede all 0s. With
// scaling factor alpha, a bundle with n ones represents
//
//     x = alpha * (n - L/2),   n in [0, L]  =>  x in [-alpha*L/2, +alpha*L/2]
//
// i.e. an L-bit stream distinguishes exactly L+1 values. Because the code is
// fully determined by the *count* of ones, every circuit in this library has
// two provably equivalent realisations:
//
//   * ThermStream — explicit bit bundle (circuit-faithful, used by the bit-
//                   level tests and the circuit benches);
//   * ThermValue  — integer count + scale (fast path used inside network
//                   evaluation). Tests assert the two paths agree exactly.

#include <algorithm>
#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sc/bitvec.h"

namespace ascend::sc {

/// Throws std::invalid_argument for a non-positive encode length or alpha
/// (kept out of line so the inline encoder stays small).
[[noreturn]] void throw_bad_encode_args(int length);

/// Count-level twin of ThermStream: (ones count, length, scale).
struct ThermValue {
  int ones = 0;   ///< number of 1 bits, in [0, length]
  int length = 0; ///< bitstream length L (BSL)
  double alpha = 1.0;

  /// Signed level q = n - L/2, in [-L/2, L/2] (half-integer when L is odd).
  double level() const { return ones - length / 2.0; }
  /// Decoded value alpha * (n - L/2).
  double value() const { return alpha * level(); }
  /// Dynamic range half-width alpha * L / 2.
  double range() const { return alpha * length / 2.0; }

  /// Quantize `x` onto an L-bit thermometer grid with scale `alpha`
  /// (round-half-away-from-zero, saturating at the ends of the range; NaN
  /// encodes to 0 ones). Inline because the LUT-served nonlinear hooks call
  /// it once per activation.
  static ThermValue encode(double x, int length, double alpha) {
    if (length <= 0 || alpha <= 0) throw_bad_encode_args(length);
    // Saturate to [0, L] in double before narrowing, so |level| >= 2^31 and
    // +-inf land on the right end; NaN maps to 0. Branch-free on SSE2:
    // activations saturate in no predictable pattern, and a mispredicted
    // clamp costs more than the rest of the encode. An ordered-compare mask
    // zeroes NaN before maxsd sees it: gcc folds maxsd on a constant NaN to
    // NaN rather than to the hardware's second operand, and the int
    // conversion below would then be undefined.
    const double level = x / alpha + length / 2.0;
#if defined(__SSE2__)
    const __m128d lv = _mm_set_sd(level);
    const __m128d ordered = _mm_and_pd(_mm_cmpord_sd(lv, lv), lv);
    const double c = _mm_cvtsd_f64(_mm_min_sd(_mm_max_sd(ordered, _mm_setzero_pd()),
                                              _mm_set_sd(static_cast<double>(length))));
#else
    const double c = std::min(std::max(0.0, level), static_cast<double>(length));
#endif
    // lround(c) without the libm call: c is in [0, L], so the truncation
    // fits in int, c - t is exact, and a fraction of exactly 0.5 rounds up.
    const int t = static_cast<int>(c);
    return ThermValue{t + (c - t >= 0.5 ? 1 : 0), length, alpha};
  }
};

/// Bit-level thermometer stream.
struct ThermStream {
  BitVec bits;
  double alpha = 1.0;

  int length() const { return static_cast<int>(bits.size()); }
  int ones() const { return static_cast<int>(bits.count()); }
  double value() const { return alpha * (ones() - length() / 2.0); }
  /// All 1s before all 0s? (BSN outputs are canonical; gate-assisted SI
  /// outputs may legitimately be permuted — only the count carries value.)
  bool is_canonical() const { return bits.is_sorted_descending(); }

  ThermValue to_value() const { return ThermValue{ones(), length(), alpha}; }
  /// Canonical bit pattern for a count-level number.
  static ThermStream from_value(const ThermValue& v);
  static ThermStream encode(double x, int length, double alpha);
};

}  // namespace ascend::sc
