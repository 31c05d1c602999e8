#include "nn/count_table.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "nn/float_key.h"
#include "nn/gemm.h"
#include "nn/ops.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ASCEND_COUNT_TABLE_X86 1
#endif

namespace ascend::nn {
namespace {

// Fresh table ids start at 2: the GELU-code slot of LsqQuantizer keys the
// erf GELU's cuts with 1 and FrozenSlot reserves 0.
std::atomic<unsigned> next_table_id{2};

#ifdef ASCEND_COUNT_TABLE_X86

// The step function of CountTable: v = base, then v = cut[s] <= x ? value[s]
// : v for every step in ascending order. The ordered compare fails on NaN,
// which keeps base, the value of NaN's count 0.
__attribute__((target("avx2"))) void steps_avx2(const float* x, std::size_t n, float* out,
                                                float base, const float* cut,
                                                const float* value, std::size_t steps) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    __m256 v = _mm256_set1_ps(base);
    for (std::size_t s = 0; s < steps; ++s)
      v = _mm256_blendv_ps(v, _mm256_set1_ps(value[s]),
                           _mm256_cmp_ps(xv, _mm256_set1_ps(cut[s]), _CMP_GE_OQ));
    _mm256_storeu_ps(out + i, v);
  }
  for (; i < n; ++i) {
    const float xi = x[i];
    float v = base;
    for (std::size_t s = 0; s < steps; ++s) v = xi >= cut[s] ? value[s] : v;
    out[i] = v;
  }
}

__attribute__((target("avx512f"))) void steps_avx512(const float* x, std::size_t n, float* out,
                                                     float base, const float* cut,
                                                     const float* value, std::size_t steps) {
  for (std::size_t i = 0; i < n; i += 16) {
    // Masked lanes past the end are neither read nor written.
    const __mmask16 live =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF) : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 xv = _mm512_maskz_loadu_ps(live, x + i);
    __m512 v = _mm512_set1_ps(base);
    for (std::size_t s = 0; s < steps; ++s)
      v = _mm512_mask_mov_ps(
          v, _mm512_cmp_ps_mask(xv, _mm512_set1_ps(cut[s]), _CMP_GE_OQ), _mm512_set1_ps(value[s]));
    _mm512_mask_storeu_ps(out + i, live, v);
  }
}

#endif  // ASCEND_COUNT_TABLE_X86

}  // namespace

std::vector<float> count_cuts(int lin, double alpha) {
  if (lin <= 0 || alpha <= 0) throw std::invalid_argument("count_cuts: lin and alpha must be > 0");
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const auto ones = [lin, alpha](std::int64_t key) {
    return sc::ThermValue::encode(key_float(key), lin, alpha).ones;
  };
  // encode is nondecreasing in x off NaN: the float widens exactly, the
  // division and the add are correctly rounded (so monotone), and the clamp
  // and the half-up rounding are monotone. -inf encodes to 0 ones and +inf
  // to lin, so every cut lies in (-inf, +inf].
  std::vector<float> cuts;
  cuts.reserve(static_cast<std::size_t>(lin));
  std::int64_t lo = float_key(-kInf);  // ones(lo) < j throughout
  for (int j = 1; j <= lin; ++j) {
    std::int64_t hi = float_key(kInf);  // ones(hi) >= j
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      (ones(mid) >= j ? hi : lo) = mid;
    }
    cuts.push_back(key_float(hi));
  }
  return cuts;
}

CountTable::CountTable(int lin, double alpha_in, std::vector<float> values)
    : lin_(lin), alpha_in_(alpha_in), values_(std::move(values)) {
  if (lin_ <= 0 || alpha_in_ <= 0 || values_.size() != static_cast<std::size_t>(lin_) + 1)
    throw std::invalid_argument("CountTable: need lin > 0, alpha_in > 0 and lin + 1 values");
  const std::vector<float> cuts = count_cuts(lin_, alpha_in_);
  for (int j = 1; j <= lin_; ++j) {
    const float v = values_[static_cast<std::size_t>(j)];
    // Bitwise, so a step between -0 and +0 (or two NaNs) is kept.
    if (std::bit_cast<std::uint32_t>(v) ==
        std::bit_cast<std::uint32_t>(values_[static_cast<std::size_t>(j) - 1]))
      continue;
    step_cut_.push_back(cuts[static_cast<std::size_t>(j) - 1]);
    step_value_.push_back(v);
  }
  id_ = next_table_id.fetch_add(1, std::memory_order_relaxed);
}

void CountTable::apply(const float* x, std::size_t n, float* out) const {
#ifdef ASCEND_COUNT_TABLE_X86
  switch (gemm::kernel()) {
    case gemm::Kernel::kAvx512:
      return steps_avx512(x, n, out, values_[0], step_cut_.data(), step_value_.data(),
                          step_cut_.size());
    case gemm::Kernel::kAvx2:
      return steps_avx2(x, n, out, values_[0], step_cut_.data(), step_value_.data(),
                        step_cut_.size());
    default:
      break;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = (*this)(x[i]);
}

CountTable CountTable::ternary_codes(float half_step) const {
  std::vector<float> codes(values_.size());
  for (std::size_t n = 0; n < values_.size(); ++n) codes[n] = ternary_code(values_[n], half_step);
  return CountTable(lin_, alpha_in_, std::move(codes));
}

}  // namespace ascend::nn
