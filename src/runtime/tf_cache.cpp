#include "runtime/tf_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nn/gemm.h"
#include "sc/fsm_units.h"
#include "sc/sng.h"
#include "sc/therm_arith.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ASCEND_TF_CACHE_X86 1
#endif

namespace ascend::runtime {
namespace {

std::string hex_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// GateSiLut
// ---------------------------------------------------------------------------

GateSiLut::GateSiLut(const sc::GateAssistedSI& block)
    : lin_(block.lin()), alpha_in_(block.alpha_in()) {
  out_.reserve(static_cast<std::size_t>(lin_) + 1);
  for (int n = 0; n <= lin_; ++n)
    out_.push_back(block.apply(sc::ThermValue{n, lin_, block.alpha_in()}).value());
  out_f_ = nn::CountTable(lin_, alpha_in_, std::vector<float>(out_.begin(), out_.end()));
}

// ---------------------------------------------------------------------------
// SoftmaxLut
// ---------------------------------------------------------------------------

SoftmaxLut::SoftmaxLut(sc::SoftmaxIterConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  // The kernel holds counts and their products in int32: reject configs
  // whose BSN-1 input or MUL-2 output length would overflow it.
  const long long lz = static_cast<long long>(cfg_.bx) * cfg_.by / 2;
  const long long lsum = cfg_.m * lz;
  const long long lw = cfg_.by * (lsum / cfg_.s1) / 2;
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  if (lsum > kIntMax || lw > kIntMax)
    throw std::invalid_argument("SoftmaxLut: Lsum or Lw does not fit in int");
  lay_ = sc::softmax_iter_layout(cfg_);
  const double alpha_c = cfg_.alpha_y / cfg_.align_expand;
  const int cap = cfg_.by * cfg_.align_expand;
  y0_ones_ = sc::ThermValue::encode(1.0 / cfg_.m, cfg_.by, cfg_.alpha_y).ones;

  // Derive every bundle's (length, alpha) by running the same op chain the
  // emulator runs (counts are irrelevant; lengths/alphas are static), so
  // each double matches the emulator's to the last bit.
  using sc::ThermValue;
  const ThermValue x0 = ThermValue::encode(0.0, cfg_.bx, cfg_.alpha_x);
  const ThermValue y0{y0_ones_, cfg_.by, cfg_.alpha_y};
  const ThermValue z0 = sc::mult(x0, y0);
  const ThermValue ssum0 = sc::subsample(
      sc::add(std::vector<ThermValue>(static_cast<std::size_t>(cfg_.m), z0)), cfg_.s1,
      cfg_.centered_subsample);
  const ThermValue mul2 = sc::mult(y0, ssum0);
  const ThermValue w0 = sc::negate(sc::subsample(mul2, cfg_.s2, cfg_.centered_subsample));
  const ThermValue zk0 = sc::divide_by_const(z0, cfg_.k);
  const ThermValue wk0 = sc::divide_by_const(w0, cfg_.k);

  hx_ = cfg_.bx / 2;
  hy_ = cfg_.by / 2;
  hz_ = z0.length / 2;
  s1_round_ = cfg_.s1 - 1 - (cfg_.centered_subsample ? (cfg_.s1 - 1) / 2 : cfg_.s1 - 1);
  hs_ = ssum0.length / 2;
  hw_ = mul2.length / 2;

  const int la = sc::softmax_alignment_length(y0.alpha, y0.length, alpha_c, cap);
  const int lb = sc::softmax_alignment_length(zk0.alpha, zk0.length, alpha_c, cap);
  const int lc = sc::softmax_alignment_length(wk0.alpha, wk0.length, alpha_c, cap);

  // Tabulate the four re-scaling blocks by evaluating the circuit emulator at
  // every reachable input count.
  auto tabulate = [this](int length, double alpha, int target_length, double target_alpha) {
    std::vector<int> lut(static_cast<std::size_t>(length) + 1);
    for (int n = 0; n <= length; ++n)
      lut[static_cast<std::size_t>(n)] =
          sc::rescale(sc::ThermValue{n, length, alpha}, target_length, target_alpha,
                      cfg_.rescale_max_den)
              .ones;
    return lut;
  };
  lut_y_ = tabulate(y0.length, y0.alpha, la, alpha_c);
  lut_zk_ = tabulate(zk0.length, zk0.alpha, lb, alpha_c);
  lut_close_ = tabulate(la + lb + lc, alpha_c, cfg_.by, cfg_.alpha_y);
  // MUL-2's s2 sub-sampler and negate, composed with the -y*sum(z)/k
  // re-scaling block, indexed by the raw MUL-2 count.
  const std::vector<int> lut_wk = tabulate(wk0.length, wk0.alpha, lc, alpha_c);
  lut_w_.resize(static_cast<std::size_t>(mul2.length) + 1);
  for (int n = 0; n <= mul2.length; ++n) {
    const ThermValue w = sc::negate(sc::subsample(ThermValue{n, mul2.length, mul2.alpha},
                                                  cfg_.s2, cfg_.centered_subsample));
    lut_w_[static_cast<std::size_t>(n)] = lut_wk[static_cast<std::size_t>(w.ones)];
  }

  y_value_.reserve(static_cast<std::size_t>(cfg_.by) + 1);
  for (int n = 0; n <= cfg_.by; ++n)
    y_value_.push_back(sc::ThermValue{n, cfg_.by, cfg_.alpha_y}.value());

  // The lanes index one group's rows as r * m (r < 16) in int32 and hold
  // the folded (qx, y) table; configs past these sizes stay scalar.
  const long long xy_size = static_cast<long long>(cfg_.bx + 1) * (cfg_.by + 1);
  if (16LL * cfg_.m <= kIntMax && xy_size <= (1LL << 20)) {
    x_cut_ = nn::count_cuts(cfg_.bx, cfg_.alpha_x);
    lut_xy_.resize(static_cast<std::size_t>(xy_size));
    for (int n = 0; n <= cfg_.bx; ++n)
      for (int y = 0; y <= cfg_.by; ++y)
        lut_xy_[static_cast<std::size_t>(n) * (cfg_.by + 1) + y] =
            lut_y_[static_cast<std::size_t>(y)] +
            lut_zk_[static_cast<std::size_t>((n - hx_) * (y - hy_) + hz_)];
    y_value_f_.assign(y_value_.begin(), y_value_.end());
  }
}

std::vector<double> SoftmaxLut::operator()(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != cfg_.m)
    throw std::invalid_argument("SoftmaxLut: input size != m");
  std::vector<double> out(x.size());
  run(x.data(), 1, out.data());
  return out;
}

void SoftmaxLut::operator()(const double* x, double* out) const { run(x, 1, out); }

#ifdef ASCEND_TF_CACHE_X86

/// SoftmaxLut::rows on the wide tiers: kLanes rows at a time, row r of a
/// group in SIMD lane r, so the row sum of MUL-1 is a lane-wise add over the
/// m elements, the per-row s1 divide is one lane-wise double divide, and
/// every table read is a gather. Each lane runs the scalar kernel's integer
/// arithmetic on the same counts:
/// - the encode counts the x cuts a score reaches (NaN reaches none, as it
///   encodes to 0 ones);
/// - sum(z) = sum(qx * qy) + m * Lz/2, with every partial sum inside int32
///   because |qx * qy| <= Lz/2 and m * Lz <= INT_MAX;
/// - the s1 sub-sampler floors (sum + s1_round) / s1 for a non-negative
///   numerator below 2^32: the double quotient is within 2^-20 / s1 of the
///   exact one, so truncating it never crosses an integer;
/// - the three tables are lut_xy_ (lut_y_ + lut_zk_ folded), lut_w_ and
///   lut_close_, and the decode reads y_value_f_.
/// A group reads all its scores before writing any output, so `out` may
/// alias `x`. The rows left over run the scalar kernel.
// gcc 12 reports the `__Y = __Y` placeholder inside the unmasked AVX-512
// intrinsics as maybe-uninitialized; the placeholder is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
struct SoftmaxLaneKernels {
  static int* scratch(std::size_t n) {
    thread_local std::vector<int> buf;  // grow-only: no heap at steady state
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }

  __attribute__((target("avx512f"))) static void rows_avx512(const SoftmaxLut& t, const float* x,
                                                             int rows, float* out) {
    constexpr int kLanes = 16;
    const sc::SoftmaxIterConfig& c = t.cfg_;
    const int m = c.m;
    const std::size_t group = static_cast<std::size_t>(kLanes) * m;
    const int groups = rows / kLanes;
    int* const nx = scratch(2 * group);  // [m][lane] x counts (0..Bx)
    int* const y = nx + group;           // [m][lane] y counts on the By grid
    const __m512i row_off =
        _mm512_mullo_epi32(_mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
                           _mm512_set1_epi32(m));
    const __m512i one = _mm512_set1_epi32(1), y0 = _mm512_set1_epi32(t.y0_ones_);
    const __m512i hx = _mm512_set1_epi32(t.hx_), hy = _mm512_set1_epi32(t.hy_);
    const __m512i hw = _mm512_set1_epi32(t.hw_), hs = _mm512_set1_epi32(t.hs_);
    const __m512i by1 = _mm512_set1_epi32(c.by + 1), mhz = _mm512_set1_epi32(m * t.hz_);
    const __m512d s1_round = _mm512_set1_pd(t.s1_round_), s1 = _mm512_set1_pd(c.s1);
    for (int g = 0; g < groups; ++g) {
      const float* xg = x + g * group;
      float* og = out + g * group;
      for (int i = 0; i < m; ++i) {
        const __m512 xv = _mm512_i32gather_ps(row_off, xg + i, 4);
        __m512i n = _mm512_setzero_si512();
        for (float cut : t.x_cut_)
          n = _mm512_mask_add_epi32(n, _mm512_cmp_ps_mask(xv, _mm512_set1_ps(cut), _CMP_GE_OQ),
                                    n, one);
        _mm512_storeu_si512(nx + i * kLanes, n);
        _mm512_storeu_si512(y + i * kLanes, y0);
      }
      for (int it = 0; it < c.k; ++it) {
        __m512i acc = _mm512_setzero_si512();
        for (int i = 0; i < m; ++i) {
          const __m512i qx = _mm512_sub_epi32(_mm512_loadu_si512(nx + i * kLanes), hx);
          const __m512i qy = _mm512_sub_epi32(_mm512_loadu_si512(y + i * kLanes), hy);
          acc = _mm512_add_epi32(acc, _mm512_mullo_epi32(qx, qy));
        }
        const __m512i sum = _mm512_add_epi32(acc, mhz);
        const __m512d lo = _mm512_div_pd(
            _mm512_add_pd(_mm512_cvtepi32_pd(_mm512_castsi512_si256(sum)), s1_round), s1);
        const __m512d hi = _mm512_div_pd(
            _mm512_add_pd(_mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(sum, 1)), s1_round), s1);
        const __m512i qs = _mm512_sub_epi32(
            _mm512_inserti64x4(_mm512_castsi256_si512(_mm512_cvttpd_epi32(lo)),
                               _mm512_cvttpd_epi32(hi), 1),
            hs);
        for (int i = 0; i < m; ++i) {
          const __m512i n = _mm512_loadu_si512(nx + i * kLanes);
          const __m512i yv = _mm512_loadu_si512(y + i * kLanes);
          const __m512i a = _mm512_i32gather_epi32(
              _mm512_add_epi32(_mm512_mullo_epi32(n, by1), yv), t.lut_xy_.data(), 4);
          const __m512i b = _mm512_i32gather_epi32(
              _mm512_add_epi32(_mm512_mullo_epi32(_mm512_sub_epi32(yv, hy), qs), hw),
              t.lut_w_.data(), 4);
          _mm512_storeu_si512(y + i * kLanes,
                              _mm512_i32gather_epi32(_mm512_add_epi32(a, b),
                                                     t.lut_close_.data(), 4));
        }
      }
      for (int i = 0; i < m; ++i)
        _mm512_i32scatter_ps(og + i, row_off,
                             _mm512_i32gather_ps(_mm512_loadu_si512(y + i * kLanes),
                                                 t.y_value_f_.data(), 4),
                             4);
    }
    const std::size_t done = static_cast<std::size_t>(groups) * group;
    t.run(x + done, rows - groups * kLanes, out + done);
  }

  __attribute__((target("avx2"))) static void rows_avx2(const SoftmaxLut& t, const float* x,
                                                        int rows, float* out) {
    constexpr int kLanes = 8;
    const sc::SoftmaxIterConfig& c = t.cfg_;
    const int m = c.m;
    const std::size_t group = static_cast<std::size_t>(kLanes) * m;
    const int groups = rows / kLanes;
    int* const nx = scratch(2 * group);  // [m][lane] x counts (0..Bx)
    int* const y = nx + group;           // [m][lane] y counts on the By grid
    const __m256i row_off =
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(m));
    const __m256i y0 = _mm256_set1_epi32(t.y0_ones_);
    const __m256i hx = _mm256_set1_epi32(t.hx_), hy = _mm256_set1_epi32(t.hy_);
    const __m256i hw = _mm256_set1_epi32(t.hw_), hs = _mm256_set1_epi32(t.hs_);
    const __m256i by1 = _mm256_set1_epi32(c.by + 1), mhz = _mm256_set1_epi32(m * t.hz_);
    const __m256d s1_round = _mm256_set1_pd(t.s1_round_), s1 = _mm256_set1_pd(c.s1);
    alignas(32) float lane_out[kLanes];
    for (int g = 0; g < groups; ++g) {
      const float* xg = x + g * group;
      float* og = out + g * group;
      for (int i = 0; i < m; ++i) {
        const __m256 xv = _mm256_i32gather_ps(xg + i, row_off, 4);
        __m256i n = _mm256_setzero_si256();
        for (float cut : t.x_cut_)  // a reached cut compares to -1
          n = _mm256_sub_epi32(
              n, _mm256_castps_si256(_mm256_cmp_ps(xv, _mm256_set1_ps(cut), _CMP_GE_OQ)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(nx + i * kLanes), n);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i * kLanes), y0);
      }
      for (int it = 0; it < c.k; ++it) {
        __m256i acc = _mm256_setzero_si256();
        for (int i = 0; i < m; ++i) {
          const __m256i qx = _mm256_sub_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nx + i * kLanes)), hx);
          const __m256i qy = _mm256_sub_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i * kLanes)), hy);
          acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(qx, qy));
        }
        const __m256i sum = _mm256_add_epi32(acc, mhz);
        const __m256d lo = _mm256_div_pd(
            _mm256_add_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(sum)), s1_round), s1);
        const __m256d hi = _mm256_div_pd(
            _mm256_add_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(sum, 1)), s1_round), s1);
        const __m256i qs = _mm256_sub_epi32(
            _mm256_set_m128i(_mm256_cvttpd_epi32(hi), _mm256_cvttpd_epi32(lo)), hs);
        for (int i = 0; i < m; ++i) {
          const __m256i n = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nx + i * kLanes));
          const __m256i yv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i * kLanes));
          const __m256i a = _mm256_i32gather_epi32(
              t.lut_xy_.data(), _mm256_add_epi32(_mm256_mullo_epi32(n, by1), yv), 4);
          const __m256i b = _mm256_i32gather_epi32(
              t.lut_w_.data(),
              _mm256_add_epi32(_mm256_mullo_epi32(_mm256_sub_epi32(yv, hy), qs), hw), 4);
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(y + i * kLanes),
              _mm256_i32gather_epi32(t.lut_close_.data(), _mm256_add_epi32(a, b), 4));
        }
      }
      for (int i = 0; i < m; ++i) {
        _mm256_store_ps(
            lane_out,
            _mm256_i32gather_ps(t.y_value_f_.data(),
                                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i * kLanes)),
                                4));
        for (int r = 0; r < kLanes; ++r) og[static_cast<std::size_t>(r) * m + i] = lane_out[r];
      }
    }
    const std::size_t done = static_cast<std::size_t>(groups) * group;
    t.run(x + done, rows - groups * kLanes, out + done);
  }
};
#pragma GCC diagnostic pop

#endif  // ASCEND_TF_CACHE_X86

void SoftmaxLut::rows(const float* scores, int rows, float* out) const {
#ifdef ASCEND_TF_CACHE_X86
  if (!lut_xy_.empty()) {
    switch (nn::gemm::kernel()) {
      case nn::gemm::Kernel::kAvx512:
        return SoftmaxLaneKernels::rows_avx512(*this, scores, rows, out);
      case nn::gemm::Kernel::kAvx2:
        return SoftmaxLaneKernels::rows_avx2(*this, scores, rows, out);
      default:
        break;
    }
  }
#endif
  run(scores, rows, out);
}

template <typename T>
void SoftmaxLut::run(const T* x, int rows, T* out) const {
  const std::size_t m = static_cast<std::size_t>(cfg_.m);
  // Grow-only per-thread scratch: the serving hook calls this per chunk of
  // attention rows and must not touch the heap at steady state.
  thread_local std::vector<int> scratch;
  if (scratch.size() < 3 * m) scratch.resize(3 * m);
  int* const qx = scratch.data();  // signed x levels, fixed across iterations
  int* const y = qx + m;           // y counts on the (By, alpha_y) grid
  int* const z = y + m;            // MUL-1 counts
  const int* const lut_y = lut_y_.data();
  const int* const lut_zk = lut_zk_.data();
  const int* const lut_w = lut_w_.data();
  const int* const lut_close = lut_close_.data();

  for (int r = 0; r < rows; ++r, x += m, out += m) {
    for (std::size_t i = 0; i < m; ++i)
      qx[i] = sc::ThermValue::encode(x[i], cfg_.bx, cfg_.alpha_x).ones - hx_;
    std::fill(y, y + m, y0_ones_);
    for (int j = 0; j < cfg_.k; ++j) {
      // MUL-1 and BSN-1: z_i = qx_i * qy_i + Lz/2, summed over the row.
      int sum = 0;
      for (std::size_t i = 0; i < m; ++i) {
        z[i] = qx[i] * (y[i] - hy_) + hz_;
        sum += z[i];
      }
      // s1 sub-sampler, then the signed level of the sub-sampled sum.
      const int qs = static_cast<int>((static_cast<long long>(sum) + s1_round_) / cfg_.s1) - hs_;
      // MUL-2 count feeds the folded table; BSN-2 is the count sum of the
      // three aligned operands, closed back onto the By grid.
      for (std::size_t i = 0; i < m; ++i) {
        const int qy = y[i] - hy_;
        y[i] = lut_close[lut_y[y[i]] + lut_zk[z[i]] + lut_w[qy * qs + hw_]];
      }
    }
    for (std::size_t i = 0; i < m; ++i)
      out[i] = static_cast<T>(y_value_[static_cast<std::size_t>(y[i])]);
  }
}

// ---------------------------------------------------------------------------
// SoftmaxFsmLut
// ---------------------------------------------------------------------------

SoftmaxFsmLut::SoftmaxFsmLut(const sc::FsmSoftmaxConfig& cfg) : cfg_(cfg) {
  if (cfg_.m < 1) throw std::invalid_argument("SoftmaxFsmLut: m must be >= 1");
  if (cfg_.bsl < 1 || cfg_.quotient_bits < 1 || cfg_.scale <= 0)
    throw std::invalid_argument("SoftmaxFsmLut: bad configuration");
  const std::size_t bsl = static_cast<std::size_t>(cfg_.bsl);
  thresholds_.resize(static_cast<std::size_t>(cfg_.m));
  counts_.resize(static_cast<std::size_t>(cfg_.m));
  for (std::size_t i = 0; i < static_cast<std::size_t>(cfg_.m); ++i) {
    // The same per-element LFSR the emulator's SNG draws from.
    sc::LfsrSource src(16, static_cast<std::uint32_t>(cfg_.seed + 0x9E37 * (i + 1)));
    range_ = static_cast<double>(src.range());
    std::vector<double> samples(bsl);
    for (std::size_t t = 0; t < bsl; ++t) samples[t] = static_cast<double>(src.next());

    // Rank each cycle's sample: the SNG emits bit_t = [sample_t < p * range],
    // so exactly the `n` lowest-ranked cycles are 1 when n samples clear the
    // threshold (ties are all-or-nothing, matching the strict comparison).
    std::vector<std::size_t> order(bsl);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&samples](std::size_t a, std::size_t b) { return samples[a] < samples[b]; });
    std::vector<std::size_t> rank(bsl);
    for (std::size_t r = 0; r < bsl; ++r) rank[order[r]] = r;

    // Walk the exponential FSM once per reachable bit pattern.
    counts_[i].resize(bsl + 1);
    for (std::size_t n = 0; n <= bsl; ++n) {
      sc::FsmExp fsm(cfg_.n_states, cfg_.g);
      long long ones = 0;
      for (std::size_t t = 0; t < bsl; ++t) ones += fsm.step(rank[t] < n) ? 1 : 0;
      counts_[i][n] = ones;
    }

    std::sort(samples.begin(), samples.end());
    thresholds_[i] = std::move(samples);
  }
}

std::vector<double> SoftmaxFsmLut::operator()(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != cfg_.m)
    throw std::invalid_argument("SoftmaxFsmLut: input size != m");

  const double mx = *std::max_element(x.begin(), x.end());
  std::vector<long long> counts(x.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double shifted = std::max(x[i] - mx, -cfg_.scale);
    // Same encoding arithmetic as StochStream::encode(-shifted, bipolar, scale).
    const double u = -shifted / cfg_.scale;
    const double p = std::clamp((u + 1.0) / 2.0, 0.0, 1.0);
    const double threshold = p * range_;
    const auto& th = thresholds_[i];
    const std::size_t n =
        static_cast<std::size_t>(std::lower_bound(th.begin(), th.end(), threshold) - th.begin());
    counts[i] = counts_[i][n];
  }

  // Shift normalization, identical integer arithmetic to sc::softmax_fsm.
  long long cmax = 0;
  for (long long c : counts) cmax = std::max(cmax, c);
  long long denom = 1;
  while (denom < cmax) denom <<= 1;
  const long long qmax = (1LL << cfg_.quotient_bits);
  std::vector<double> y(x.size(), 0.0);
  if (cmax > 0) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const long long q = counts[i] * qmax / denom;
      y[i] = static_cast<double>(q) / static_cast<double>(qmax);
    }
  }
  return y;
}

// ---------------------------------------------------------------------------
// BernsteinLut
// ---------------------------------------------------------------------------

BernsteinLut::BernsteinLut(const sc::BernsteinUnit& unit, std::size_t bsl, std::uint64_t seed)
    : bsl_(bsl), seed_(seed) {
  if (bsl_ < 1) throw std::invalid_argument("BernsteinLut: bsl must be >= 1");
  const int n = unit.degree();
  const auto& coeffs = unit.coefficients();

  // The exact SNG bank eval_stochastic draws from (shared construction, so
  // the table cannot drift from the emulator's randomness).
  sc::BernsteinUnit::SngBank bank = unit.make_sng_bank(seed);
  std::vector<sc::Lfsr>& inputs = bank.inputs;
  sc::Lfsr& coef = bank.coef;

  // Record every input-SNG sample as the exact u-threshold at which its
  // comparator flips. Ranges are powers of two, so sample / range is exact
  // and `sample < u * range` (the emulator's comparison, a pure exponent
  // shift on u) is equivalent to `threshold < u` without any rounding.
  struct Event {
    double threshold;
    std::uint32_t cycle;
  };
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(n) * bsl_);
  std::vector<double> coef_sample(bsl_);
  const double coef_range = static_cast<double>(coef.range());
  for (std::size_t t = 0; t < bsl_; ++t) {
    for (int i = 0; i < n; ++i) {
      sc::Lfsr& g = inputs[static_cast<std::size_t>(i)];
      events.push_back({static_cast<double>(g.next()) / static_cast<double>(g.range()),
                        static_cast<std::uint32_t>(t)});
    }
    coef_sample[t] = static_cast<double>(coef.next());
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.threshold < b.threshold; });

  // Plateau 0: u below every threshold, so every adder index is 0. Each event
  // bumps exactly one cycle's index, which re-selects that cycle's
  // coefficient stream; the output ones-count updates in O(1).
  std::vector<int> idx(bsl_, 0);
  std::vector<char> bit(bsl_, 0);
  auto mux_bit = [&](std::size_t t, int index) {
    return coef_sample[t] < coeffs[static_cast<std::size_t>(index)] * coef_range;
  };
  long long ones = 0;
  for (std::size_t t = 0; t < bsl_; ++t) {
    bit[t] = mux_bit(t, 0) ? 1 : 0;
    ones += bit[t];
  }
  breaks_.reserve(events.size());
  value_.reserve(events.size() + 1);
  value_.push_back(static_cast<double>(ones) / static_cast<double>(bsl_));
  for (const Event& e : events) {
    const auto t = static_cast<std::size_t>(e.cycle);
    ++idx[t];
    const char nb = mux_bit(t, idx[t]) ? 1 : 0;
    ones += nb - bit[t];
    bit[t] = nb;
    breaks_.push_back(e.threshold);
    value_.push_back(static_cast<double>(ones) / static_cast<double>(bsl_));
  }
}

double BernsteinLut::operator()(double u) const {
  u = std::clamp(u, 0.0, 1.0);
  // Plateau index = number of thresholds strictly below u (ties don't fire:
  // the emulator's comparison is strict).
  const auto fired = static_cast<std::size_t>(
      std::lower_bound(breaks_.begin(), breaks_.end(), u) - breaks_.begin());
  return value_[fired];
}

BernsteinGeluLut::BernsteinGeluLut(const sc::BernsteinGelu& block, std::size_t bsl,
                                   std::uint64_t seed)
    : in_lo_(block.in_lo()),
      in_hi_(block.in_hi()),
      out_lo_(block.out_lo()),
      out_hi_(block.out_hi()),
      lut_(block.unit(), bsl, seed) {}

// ---------------------------------------------------------------------------
// TfCache
// ---------------------------------------------------------------------------

std::string softmax_cache_key(const sc::SoftmaxIterConfig& cfg) {
  std::string key = "sm:";
  key += std::to_string(cfg.m) + "," + std::to_string(cfg.k) + "," + std::to_string(cfg.bx) + "," +
         std::to_string(cfg.by) + "," + std::to_string(cfg.s1) + "," + std::to_string(cfg.s2) +
         "," + hex_double(cfg.alpha_x) + "," + hex_double(cfg.alpha_y) + "," +
         std::to_string(cfg.align_expand) + "," + std::to_string(cfg.rescale_max_den) + "," +
         (cfg.centered_subsample ? "c" : "e");
  return key;
}

std::string gate_si_cache_key(const sc::GateAssistedSI& block) {
  // FNV-1a over the count table; collisions across distinct tables with the
  // same (Lin, Lout, alphas) would need a 64-bit hash collision.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int v : block.table()) {
    auto u = static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return "gsi:" + std::to_string(block.lin()) + "," + std::to_string(block.lout()) + "," +
         hex_double(block.alpha_in()) + "," + hex_double(block.alpha_out()) + "," + buf;
}

std::string bernstein_cache_key(const sc::BernsteinGelu& block, std::size_t bsl,
                                std::uint64_t seed) {
  std::string key = "bern:";
  for (double c : block.unit().coefficients()) key += hex_double(c) + ",";
  key += hex_double(block.in_lo()) + "," + hex_double(block.in_hi()) + "," +
         hex_double(block.out_lo()) + "," + hex_double(block.out_hi()) + "," +
         std::to_string(bsl) + "," + std::to_string(seed);
  return key;
}

std::string softmax_fsm_cache_key(const sc::FsmSoftmaxConfig& cfg) {
  std::string key = "smfsm:";
  key += std::to_string(cfg.m) + "," + std::to_string(cfg.bsl) + "," +
         std::to_string(cfg.n_states) + "," + std::to_string(cfg.g) + "," +
         hex_double(cfg.scale) + "," + std::to_string(cfg.quotient_bits) + "," +
         std::to_string(cfg.seed);
  return key;
}

template <typename T, typename Build>
const T& TfCache::get_or_build(std::map<std::string, std::unique_ptr<T>>& map,
                               const std::string& key, Build&& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map.find(key);
    if (it != map.end()) return *it->second;
  }
  // Build outside the lock (synthesis / tabulation can be expensive).
  auto lut = build();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map.emplace(key, std::move(lut));
  (void)inserted;  // a racing builder's identical table is simply kept
  return *it->second;
}

const GateSiLut& TfCache::gelu(int b, double input_lo, double input_hi, int input_bsl) {
  const std::string key = "gelu:" + std::to_string(b) + "," + hex_double(input_lo) + "," +
                          hex_double(input_hi) + "," + std::to_string(input_bsl);
  return get_or_build(gelu_, key, [&] {
    return std::make_unique<GateSiLut>(sc::make_gelu_block(b, input_lo, input_hi, input_bsl));
  });
}

const GateSiLut& TfCache::gate_si(const sc::GateAssistedSI& block) {
  return get_or_build(gelu_, gate_si_cache_key(block),
                      [&] { return std::make_unique<GateSiLut>(block); });
}

const BernsteinGeluLut& TfCache::bernstein(const sc::BernsteinGelu& block, std::size_t bsl,
                                           std::uint64_t seed) {
  return get_or_build(bernstein_, bernstein_cache_key(block, bsl, seed),
                      [&] { return std::make_unique<BernsteinGeluLut>(block, bsl, seed); });
}

const SoftmaxLut& TfCache::softmax(const sc::SoftmaxIterConfig& cfg) {
  return get_or_build(softmax_, softmax_cache_key(cfg),
                      [&] { return std::make_unique<SoftmaxLut>(cfg); });
}

const SoftmaxFsmLut& TfCache::softmax_fsm(const sc::FsmSoftmaxConfig& cfg) {
  return get_or_build(softmax_fsm_, softmax_fsm_cache_key(cfg),
                      [&] { return std::make_unique<SoftmaxFsmLut>(cfg); });
}

std::size_t TfCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gelu_.size() + softmax_.size() + softmax_fsm_.size() + bernstein_.size();
}

TfCache& global_tf_cache() {
  static TfCache cache;
  return cache;
}

// ---------------------------------------------------------------------------
// Cached MAE protocols
// ---------------------------------------------------------------------------

double softmax_sc_mae_cached(const sc::SoftmaxIterConfig& cfg, int rows, std::uint64_t seed,
                             TfCache& cache) {
  // Same sampling and accumulation order as sc::softmax_sc_mae; the LUT is
  // bit-exact with softmax_iterative_sc, so the result is bit-identical.
  const auto logits = sc::sample_attention_logits(cfg.m, rows, seed);
  const SoftmaxLut& lut = cache.softmax(cfg);
  double total = 0.0;
  for (const auto& row : logits) {
    const auto ref = sc::softmax_exact(row);
    const auto got = lut(row);
    for (std::size_t i = 0; i < row.size(); ++i) total += std::fabs(got[i] - ref[i]);
  }
  return total / (static_cast<double>(rows) * cfg.m);
}

double softmax_fsm_mae_cached(const sc::FsmSoftmaxConfig& cfg, int rows, std::uint64_t seed,
                              TfCache& cache, FsmSeedMode mode) {
  const auto logits = sc::sample_attention_logits(cfg.m, rows, seed);
  double total = 0.0;
  sc::FsmSoftmaxConfig per_row = cfg;
  for (std::size_t r = 0; r < logits.size(); ++r) {
    // kPerRowSeeds mirrors sc::softmax_fsm_mae's re-seeding exactly;
    // kSharedSeed leaves cfg.seed in place so one table serves every row.
    if (mode == FsmSeedMode::kPerRowSeeds) per_row.seed = cfg.seed + 0x1234567ULL * r;
    const auto ref = sc::softmax_exact(logits[r]);
    const auto got = cache.softmax_fsm(per_row)(logits[r]);
    for (std::size_t i = 0; i < ref.size(); ++i) total += std::fabs(got[i] - ref[i]);
  }
  return total / (static_cast<double>(rows) * cfg.m);
}

}  // namespace ascend::runtime
