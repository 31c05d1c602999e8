// Tests for the batched SC inference runtime: thread-pool parallel_for,
// batcher cutoff behaviour, bit-exact agreement of the tf_cache LUTs with the
// circuit emulators, and engine-vs-manual-hook equivalence.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "test_util.h"
#include "vit/train.h"

using namespace ascend;
using ascend::testing::in_place_sc_registry;
using ascend::testing::infer_labels;
using namespace ascend::runtime;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(7, 997, [&hits](int lo, int hi) {
    for (int i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), (i >= 7 && i < 997) ? 1 : 0) << i;
}

TEST(ThreadPool, ParallelForSmallChunksCoverRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  int max_seen = 0;
  std::mutex mu;
  pool.parallel_for(
      3, 487,
      [&](int lo, int hi) {
        for (int i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        max_seen = std::max(max_seen, hi - lo);
      },
      /*max_chunk=*/8);
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), (i >= 3 && i < 487) ? 1 : 0) << i;
  EXPECT_LE(max_seen, 8);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](int, int) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ParallelForDrainsAllChunksBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(pool.parallel_for(0, 400,
                                 [&visited](int lo, int hi) {
                                   for (int i = lo; i < hi; ++i) visited.fetch_add(1);
                                   if (lo == 0) throw std::runtime_error("chunk failure");
                                 }),
               std::runtime_error);
  // No chunk was abandoned mid-flight and the pool is still serviceable.
  EXPECT_EQ(visited.load(), 400);
  std::atomic<int> again{0};
  pool.parallel_for(0, 40, [&again](int lo, int hi) { again.fetch_add(hi - lo); });
  EXPECT_EQ(again.load(), 40);
}

TEST(ThreadPool, ParallelForFinishesWhileTheOnlyWorkerIsBlocked) {
  ThreadPool pool(1);
  std::promise<void> entered, release;
  std::shared_future<void> worker_entered = entered.get_future().share();
  std::shared_future<void> released = release.get_future().share();
  // A concurrent two-chunk parallel_for parks the only worker: its caller
  // holds its own chunk until the worker has claimed the other one, and the
  // worker's chunk blocks until released.
  std::thread blocker([&] {
    const std::thread::id blocker_id = std::this_thread::get_id();
    pool.parallel_for(
        0, 2,
        [&](int, int) {
          if (std::this_thread::get_id() == blocker_id) {
            worker_entered.wait();
          } else {
            entered.set_value();
            released.wait();
          }
        },
        /*max_chunk=*/1);
  });
  worker_entered.wait();
  {
    // Ten chunks: one helper task queues behind the blocked worker, so the
    // caller must run every chunk itself rather than wait for it.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> hits(100, 0);
    std::atomic<int> off_caller{0};
    pool.parallel_for(
        0, 100,
        [&](int lo, int hi) {
          if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
          for (int i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
        },
        /*max_chunk=*/10);
    EXPECT_EQ(off_caller.load(), 0);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << i;
  }  // the body is gone before the late helper starts
  release.set_value();
  blocker.join();
  // The late helper found nothing to claim; the pool still serves.
  std::atomic<int> again{0};
  pool.parallel_for(0, 8, [&again](int lo, int hi) { again.fetch_add(hi - lo); }, 1);
  EXPECT_EQ(again.load(), 8);
}

TEST(ThreadPool, MaxChunkLoadBalancesAcrossThreeWorkers) {
  // Chunk 0 stalls until every other chunk has finished. Dynamic claiming
  // lets the other threads take the rest of the range meanwhile; a static
  // split would leave chunk 0's thread holding part of it, and the stall
  // would time out.
  ThreadPool pool(3);
  constexpr int kChunks = 48;
  std::atomic<int> finished{0};
  std::atomic<bool> stalled_out{false};
  std::mutex mu;
  std::map<std::thread::id, int> per_thread;
  std::thread::id stalled;
  pool.parallel_for(
      0, kChunks,
      [&](int lo, int hi) {
        EXPECT_EQ(hi - lo, 1);
        if (lo == 0) {
          stalled = std::this_thread::get_id();
          const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
          while (finished.load() < kChunks - 1) {
            if (std::chrono::steady_clock::now() > give_up) {
              stalled_out = true;
              break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        } else {
          finished.fetch_add(1);
        }
        std::lock_guard<std::mutex> lock(mu);
        ++per_thread[std::this_thread::get_id()];
      },
      /*max_chunk=*/1);
  EXPECT_FALSE(stalled_out.load());
  EXPECT_EQ(finished.load(), kChunks - 1);
  // Chunk 0's thread ran nothing else; the other chunks spread over at
  // least one more thread, and never beyond the caller plus 3 workers.
  EXPECT_EQ(per_thread[stalled], 1);
  EXPECT_GE(per_thread.size(), 2u);
  EXPECT_LE(per_thread.size(), 4u);
  int total = 0;
  for (const auto& [id, n] : per_thread) total += n;
  EXPECT_EQ(total, kChunks);
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

TEST(Batcher, SizeCutoffClosesFullBatchBeforeDeadline) {
  Batcher b(4, std::chrono::microseconds(2'000'000));  // 2 s latency budget
  std::vector<std::future<Prediction>> futs;
  for (int i = 0; i < 6; ++i) futs.push_back(b.enqueue({1.0f}));
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.next_batch();
  const auto ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(batch.size(), 4u);   // size cutoff, not the 2 s deadline
  EXPECT_LT(ms, 1000.0);
  b.close();
  EXPECT_EQ(b.next_batch().size(), 2u);  // remainder drains after close
  EXPECT_TRUE(b.next_batch().empty());
}

TEST(Batcher, LatencyCutoffReleasesPartialBatch) {
  Batcher b(64, std::chrono::microseconds(30'000));  // 30 ms budget
  auto f1 = b.enqueue({1.0f});
  auto f2 = b.enqueue({2.0f});
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.next_batch();
  const auto ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_GE(ms, 20.0);  // held for (most of) the budget waiting for more work
  b.close();
}

TEST(Batcher, EnqueueAfterCloseThrows) {
  Batcher b(4, std::chrono::microseconds(1000));
  b.close();
  EXPECT_THROW(b.enqueue({1.0f}), std::runtime_error);
  EXPECT_TRUE(b.next_batch().empty());
}

TEST(Batcher, RejectsBadConfig) {
  EXPECT_THROW(Batcher(0, std::chrono::microseconds(1)), std::invalid_argument);
  EXPECT_THROW(Batcher(1, std::chrono::microseconds(-1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// tf_cache — the LUTs must be bit-exact with the circuit emulators.
// ---------------------------------------------------------------------------

TEST(GateSiLut, BitExactWithCircuitEmulationAcrossBsls) {
  for (int b : {2, 4, 8, 16}) {
    const sc::GateAssistedSI block = sc::make_gelu_block(b, -4.0, 4.0, 16);
    const GateSiLut lut(block);
    for (int i = 0; i <= 2000; ++i) {
      const double x = -5.0 + 10.0 * i / 2000.0;  // sweep past saturation
      ASSERT_EQ(lut(x), block.transfer(x)) << "B=" << b << " x=" << x;
    }
  }
}

TEST(GateSiLut, TableMatchesBitLevelGateLogic) {
  const sc::GateAssistedSI block = sc::make_gelu_block(8, -4.0, 4.0, 16);
  const GateSiLut lut(block);
  ASSERT_EQ(lut.table().size(), static_cast<std::size_t>(block.lin()) + 1);
  for (int n = 0; n <= block.lin(); ++n) {
    const sc::ThermStream in =
        sc::ThermStream::from_value(sc::ThermValue{n, block.lin(), block.alpha_in()});
    EXPECT_EQ(lut.table()[static_cast<std::size_t>(n)], block.apply(in).value()) << "n=" << n;
  }
}

TEST(GateSiLut, AutoKeyedCacheServesArbitrarySynthesizedBlocks) {
  // A non-GELU nonlinearity through the generic gate-SI entry point.
  const auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  const sc::GateAssistedSI block = sc::GateAssistedSI::synthesize(sigmoid, 16, 4, 0.5, 0.25);
  TfCache cache;
  const GateSiLut* a = &cache.gate_si(block);
  const GateSiLut* b = &cache.gate_si(block);
  EXPECT_EQ(a, b) << "same block must hit the same cache entry";
  for (int i = 0; i <= 400; ++i) {
    const double x = -5.0 + 10.0 * i / 400.0;
    ASSERT_EQ((*a)(x), block.transfer(x)) << "x=" << x;
  }
  // A different table is a different entry, never a stale hit.
  const sc::GateAssistedSI other = sc::GateAssistedSI::synthesize(sigmoid, 16, 8, 0.5, 0.125);
  EXPECT_NE(&cache.gate_si(other), a);
  EXPECT_NE(gate_si_cache_key(block), gate_si_cache_key(other));
}

TEST(BernsteinLut, BitExactWithStochasticEmulatorAcrossSeedsAndBsls) {
  const sc::BernsteinUnit unit =
      sc::BernsteinUnit::fit([](double u) { return 0.5 + 0.4 * std::sin(3.0 * u); }, 5);
  for (std::size_t bsl : {64u, 256u}) {
    for (std::uint64_t seed : {1ull, 0xDEADBEEFull}) {
      const BernsteinLut lut(unit, bsl, seed);
      // Dense grid plus the exact plateau thresholds' neighbourhoods: u just
      // below, at, and above a dyadic sample must all match the emulator.
      for (int i = 0; i <= 300; ++i) {
        const double u = static_cast<double>(i) / 300.0;
        ASSERT_EQ(lut(u), unit.eval_stochastic(u, bsl, seed)) << "u=" << u << " bsl=" << bsl;
      }
      for (double base : {3.0 / 8192.0, 977.0 / 8192.0, 8191.0 / 8192.0}) {
        for (double u : {std::nextafter(base, 0.0), base, std::nextafter(base, 1.0)})
          ASSERT_EQ(lut(u), unit.eval_stochastic(u, bsl, seed)) << "u=" << u;
      }
      // Out-of-range inputs clamp identically.
      ASSERT_EQ(lut(-0.5), unit.eval_stochastic(-0.5, bsl, seed));
      ASSERT_EQ(lut(1.5), unit.eval_stochastic(1.5, bsl, seed));
    }
  }
}

TEST(BernsteinGeluLut, BitExactWithBernsteinGeluAndCached) {
  const sc::BernsteinGelu block(4);
  TfCache cache;
  const BernsteinGeluLut* lut = &cache.bernstein(block, 128, 7);
  EXPECT_EQ(lut, &cache.bernstein(block, 128, 7));
  EXPECT_NE(lut, &cache.bernstein(block, 128, 8)) << "seed is part of the key";
  EXPECT_NE(lut, &cache.bernstein(block, 256, 7)) << "bsl is part of the key";
  for (int i = 0; i <= 500; ++i) {
    const double x = -5.0 + 7.0 * i / 500.0;  // sweep past the input clamp
    ASSERT_EQ((*lut)(x), block.eval_stochastic(x, 128, 7)) << "x=" << x;
  }
}

// Randomized, fixed-seed differential over drawn degree, input range, bsl and
// seed, with inputs on both sides of the clamp, at its edges, and on and
// around the input SNG's samples. Odd configs use a dyadic input range, where
// those inputs map to u exactly on a sample: the comparison `sample < u *
// range` must then not fire, as in the emulator.
TEST(BernsteinGeluLut, RandomizedDifferentialAgainstEmulator) {
  std::mt19937_64 rng(20241018);
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  for (int c = 0; c < 40; ++c) {
    double in_lo = uniform(-6.0, -1.0), in_hi = uniform(0.25, 4.0);
    if (c % 2) {
      in_lo = -pick(1, 6);
      in_hi = in_lo + std::ldexp(1.0, pick(2, 3));
    }
    const sc::BernsteinGelu block(pick(2, 8), in_lo, in_hi);
    const std::size_t bsl = static_cast<std::size_t>(pick(1, 600));
    const std::uint64_t seed = rng();
    const BernsteinGeluLut lut(block, bsl, seed);
    std::vector<double> xs = {in_lo,
                              in_hi,
                              std::nextafter(in_lo, -10.0),
                              std::nextafter(in_hi, 10.0),
                              -1e30,
                              1e30,
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity()};
    for (int i = 0; i < 60; ++i) xs.push_back(uniform(in_lo - 3.0, in_hi + 3.0));
    sc::Lfsr input = block.unit().make_sng_bank(seed).inputs.at(0);
    for (int i = 0; i < 16; ++i) {
      const double x = in_lo + (in_hi - in_lo) * input.next() / input.range();
      xs.insert(xs.end(), {std::nextafter(x, -10.0), x, std::nextafter(x, 10.0)});
    }
    for (double x : xs)
      ASSERT_EQ(lut(x), block.eval_stochastic(x, bsl, seed))
          << "config " << c << " terms=" << block.terms() << " bsl=" << bsl << " seed=" << seed
          << " x=" << x;
  }
}

TEST(SoftmaxLut, BitExactWithCountLevelEmulation) {
  std::vector<sc::SoftmaxIterConfig> configs;
  {
    sc::SoftmaxIterConfig cfg;  // Table II-style defaults at m = 16
    cfg.m = 16;
    configs.push_back(cfg);
    cfg.centered_subsample = false;
    configs.push_back(cfg);
    cfg = sc::SoftmaxIterConfig{};  // the serve example's configuration
    cfg.m = 16;
    cfg.bx = 8;
    cfg.alpha_x = 1.0;
    cfg.by = 32;
    cfg.k = 3;
    cfg.s1 = 4;
    cfg.s2 = 2;
    cfg.alpha_y = 3.0 / 32;
    configs.push_back(cfg);
    cfg.k = 1;
    configs.push_back(cfg);
  }
  for (const auto& cfg : configs) {
    const SoftmaxLut lut(cfg);
    const auto rows = sc::sample_attention_logits(cfg.m, 50, /*seed=*/99);
    for (const auto& row : rows) {
      const auto fast = lut(row);
      const auto ref = sc::softmax_iterative_sc(row, cfg);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(fast[i], ref[i]) << "k=" << cfg.k << " s1=" << cfg.s1 << " i=" << i;
    }
  }
}

TEST(SoftmaxLut, BitExactWithBitLevelCircuit) {
  sc::SoftmaxIterConfig cfg;
  cfg.m = 8;
  cfg.s1 = 16;
  cfg.s2 = 4;
  const SoftmaxLut lut(cfg);
  const auto rows = sc::sample_attention_logits(cfg.m, 3, /*seed=*/5);
  for (const auto& row : rows) {
    const auto fast = lut(row);
    const auto bits = sc::softmax_iterative_sc_bits(row, cfg);
    for (std::size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(fast[i], bits[i]);
  }
}

TEST(SoftmaxLut, RejectsWrongInputSize) {
  sc::SoftmaxIterConfig cfg;
  cfg.m = 16;
  const SoftmaxLut lut(cfg);
  EXPECT_THROW(lut(std::vector<double>(7, 0.0)), std::invalid_argument);
}

namespace {

/// Random valid iterative-softmax config: s1 and s2 are drawn from the
/// divisors that keep every sub-sampled bundle even (MUL-2 requires it) and
/// the tables small.
sc::SoftmaxIterConfig random_softmax_config(std::mt19937_64& rng) {
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  auto divisor = [&](int n, int max_quotient, bool even_quotient) {
    std::vector<int> ds;
    for (int d = 1; d <= n; ++d)
      if (n % d == 0 && n / d <= max_quotient && (!even_quotient || (n / d) % 2 == 0))
        ds.push_back(d);
    return ds.empty() ? n : ds[static_cast<std::size_t>(pick(0, static_cast<int>(ds.size()) - 1))];
  };
  sc::SoftmaxIterConfig cfg;
  cfg.m = pick(2, 24);
  cfg.k = pick(1, 4);
  cfg.bx = 2 * pick(1, 4);
  cfg.by = 1 << pick(1, 5);
  const int lsum = cfg.m * cfg.bx * cfg.by / 2;
  cfg.s1 = divisor(lsum, 256, /*even_quotient=*/true);
  cfg.s2 = divisor(cfg.by * (lsum / cfg.s1) / 2, 1 << 30, false);
  cfg.alpha_x = std::uniform_real_distribution<double>(0.1, 3.0)(rng);
  cfg.alpha_y = std::uniform_real_distribution<double>(0.25, 4.0)(rng) / cfg.m;
  cfg.align_expand = 1 << pick(0, 3);
  cfg.centered_subsample = pick(0, 1) == 1;
  return cfg;
}

/// Sampled attention rows plus rows that exercise the input clamp: logits far
/// past the x range, the float/double extremes, infinities and NaN.
std::vector<std::vector<double>> differential_rows(const sc::SoftmaxIterConfig& cfg,
                                                   std::uint64_t seed) {
  std::vector<std::vector<double>> rows = sc::sample_attention_logits(cfg.m, 4, seed);
  const double range = cfg.alpha_x * cfg.bx / 2;
  const double extremes[] = {0.0,
                             range,
                             -range,
                             3 * range,
                             -3 * range,
                             1e30,
                             -1e30,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> row(static_cast<std::size_t>(cfg.m));
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = extremes[(i + seed) % std::size(extremes)];
  rows.push_back(row);
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = (i % 2 ? 1 : -1) * 5.0 * range;
  rows.push_back(row);
  return rows;
}

}  // namespace

TEST(SoftmaxLut, RandomizedDifferentialAgainstEmulator) {
  std::mt19937_64 rng(20240611);
  int checked = 0, bit_level_checked = 0;
  for (int c = 0; c < 300; ++c) {
    const sc::SoftmaxIterConfig cfg = random_softmax_config(rng);
    std::unique_ptr<SoftmaxLut> built;
    try {
      built = std::make_unique<SoftmaxLut>(cfg);
    } catch (const std::exception&) {
      // Some scale ratios have no balanced re-scaling plan: the circuit
      // emulator must reject the same config.
      EXPECT_ANY_THROW(sc::softmax_iterative_sc(std::vector<double>(cfg.m, 0.0), cfg))
          << softmax_cache_key(cfg);
      continue;
    }
    ++checked;
    const SoftmaxLut& lut = *built;
    const auto rows = differential_rows(cfg, static_cast<std::uint64_t>(c));
    const std::size_t m = static_cast<std::size_t>(cfg.m);
    // Rows narrowed to float are the float API's input; their widened copies
    // are the double reference's.
    std::vector<float> scores;
    for (const auto& row : rows)
      for (double v : row) scores.push_back(static_cast<float>(v));
    std::vector<float> batched(scores.size());
    lut.rows(scores.data(), static_cast<int>(rows.size()), batched.data());

    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::string where = "config " + std::to_string(c) + " " + softmax_cache_key(cfg) +
                                " row " + std::to_string(r);
      // double API vs the count-level emulator.
      const auto ref = sc::softmax_iterative_sc(rows[r], cfg);
      ASSERT_EQ(lut(rows[r]), ref) << where;
      std::vector<double> out(m);
      lut(rows[r].data(), out.data());
      ASSERT_EQ(out, ref) << where;

      // float API vs the emulator on the widened float row, cast to float.
      const float* srow = scores.data() + r * m;
      const auto ref_f = sc::softmax_iterative_sc(std::vector<double>(srow, srow + m), cfg);
      std::vector<float> single(m);
      lut.rows(srow, 1, single.data());
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(single[i], static_cast<float>(ref_f[i])) << where << " i=" << i;
        ASSERT_EQ(batched[r * m + i], single[i]) << where << " i=" << i << " (batched)";
      }
    }
    // The bit-level circuit on the configs small enough to emulate cheaply.
    if (cfg.m <= 8 && cfg.by <= 8 && cfg.bx <= 4) {
      ++bit_level_checked;
      for (const auto& row : rows) ASSERT_EQ(lut(row), sc::softmax_iterative_sc_bits(row, cfg));
    }
  }
  EXPECT_GE(checked, 200);
  EXPECT_GE(bit_level_checked, 5);
}

TEST(SoftmaxLut, RowsMayRunInPlace) {
  sc::SoftmaxIterConfig cfg;
  cfg.m = 16;
  const SoftmaxLut lut(cfg);
  const auto rows = sc::sample_attention_logits(cfg.m, 3, /*seed=*/17);
  std::vector<float> buf;
  for (const auto& row : rows)
    for (double v : row) buf.push_back(static_cast<float>(v));
  std::vector<float> expect(buf.size());
  lut.rows(buf.data(), 3, expect.data());
  lut.rows(buf.data(), 3, buf.data());
  EXPECT_EQ(buf, expect);
}

namespace {

/// The serving configuration (the perfbench/serve examples') at row length m.
sc::SoftmaxIterConfig serving_softmax_config(int m) {
  sc::SoftmaxIterConfig cfg;
  cfg.m = m;
  cfg.bx = 8;
  cfg.alpha_x = 1.0;
  cfg.by = 32;
  cfg.k = 3;
  cfg.s1 = 4;
  cfg.s2 = 2;
  cfg.alpha_y = 3.0 / 32;
  return cfg;
}

/// `rows` rows of m scores: sampled logits, with every fifth score replaced
/// by an edge value (the x encode's cuts and the floats just below them,
/// +-inf, NaN, +-FLT_MAX, +-1e30).
std::vector<float> edge_scores(const sc::SoftmaxIterConfig& cfg, int rows, std::uint64_t seed) {
  std::vector<float> edges = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max(),
                              1e30f,
                              -1e30f,
                              0.0f,
                              -0.0f};
  for (float c : nn::count_cuts(cfg.bx, cfg.alpha_x)) {
    edges.push_back(c);
    edges.push_back(std::nextafter(c, -std::numeric_limits<float>::infinity()));
  }
  std::vector<float> x;
  for (const auto& row : sc::sample_attention_logits(cfg.m, rows, seed))
    for (double v : row) x.push_back(static_cast<float>(v));
  for (std::size_t i = 0; i < x.size(); i += 5) x[i] = edges[(i / 5 + seed) % edges.size()];
  return x;
}

}  // namespace

TEST(SoftmaxLut, LaneTiersMatchBaseTierAndEmulator) {
  // Row counts around the 8- and 16-row interleaves; short and odd row
  // lengths leave no element tail to hide. The circuit needs m >= 2.
  ascend::testing::TierGuard guard;
  EXPECT_THROW(SoftmaxLut{serving_softmax_config(1)}, std::invalid_argument);
  for (int m : {2, 5, 16, 17, 33}) {
    const sc::SoftmaxIterConfig cfg = serving_softmax_config(m);
    const SoftmaxLut lut(cfg);
    for (int rows : {1, 7, 8, 9, 15, 16, 17, 24, 33}) {
      const std::size_t n = static_cast<std::size_t>(rows) * m;
      const std::vector<float> x = edge_scores(cfg, rows, static_cast<std::uint64_t>(m * 100 + rows));
      // The emulator on every widened row, cast to float.
      std::vector<float> want(n);
      for (int r = 0; r < rows; ++r) {
        const float* xr = x.data() + static_cast<std::size_t>(r) * m;
        const auto y = sc::softmax_iterative_sc(std::vector<double>(xr, xr + m), cfg);
        for (int i = 0; i < m; ++i) want[static_cast<std::size_t>(r) * m + i] = static_cast<float>(y[i]);
      }
      for (const nn::gemm::Kernel tier : ascend::testing::supported_tiers()) {
        nn::gemm::set_kernel(tier);
        const std::string where = std::string(nn::gemm::kernel_name()) + " m=" +
                                  std::to_string(m) + " rows=" + std::to_string(rows);
        std::vector<float> got(n);
        lut.rows(x.data(), rows, got.data());
        ASSERT_TRUE(ascend::testing::same_bits(got.data(), want.data(), n)) << where;
        std::vector<float> buf = x;  // in place
        lut.rows(buf.data(), rows, buf.data());
        ASSERT_TRUE(ascend::testing::same_bits(buf.data(), want.data(), n)) << where << " (in place)";
      }
    }
  }
}

TEST(SoftmaxLut, LaneTiersMatchBaseTierOnRandomConfigs) {
  // 40 rows: two full 16-row groups and a tail, five 8-row groups.
  ascend::testing::TierGuard guard;
  std::mt19937_64 rng(20261019);
  int checked = 0;
  for (int c = 0; c < 120; ++c) {
    const sc::SoftmaxIterConfig cfg = random_softmax_config(rng);
    std::unique_ptr<SoftmaxLut> lut;
    try {
      lut = std::make_unique<SoftmaxLut>(cfg);
    } catch (const std::exception&) {
      continue;  // no balanced re-scaling plan (see the differential test)
    }
    ++checked;
    const int rows = 40;
    const std::size_t n = static_cast<std::size_t>(rows) * cfg.m;
    const std::vector<float> x = edge_scores(cfg, rows, static_cast<std::uint64_t>(c));
    nn::gemm::set_kernel(nn::gemm::Kernel::kBase);
    std::vector<float> want(n);
    lut->rows(x.data(), rows, want.data());
    for (const nn::gemm::Kernel tier : ascend::testing::supported_tiers()) {
      nn::gemm::set_kernel(tier);
      std::vector<float> got(n);
      lut->rows(x.data(), rows, got.data());
      ASSERT_TRUE(ascend::testing::same_bits(got.data(), want.data(), n))
          << nn::gemm::kernel_name() << " " << softmax_cache_key(cfg);
    }
  }
  EXPECT_GE(checked, 80);
}

TEST(SoftmaxLut, RejectsConfigsThatOverflowInt) {
  sc::SoftmaxIterConfig cfg;  // Lsum = m * Bx*By/2 = 2^31
  cfg.m = 1 << 20;
  cfg.bx = 64;
  cfg.by = 64;
  ASSERT_NO_THROW(cfg.validate());
  EXPECT_THROW(SoftmaxLut{cfg}, std::invalid_argument);

  cfg = sc::SoftmaxIterConfig{};  // Lsum = 2^24 fits, Lw = By * Lsum / 2 = 2^31 does not
  cfg.m = 1 << 16;
  cfg.bx = 2;
  cfg.by = 256;
  cfg.s1 = 1;
  ASSERT_NO_THROW(cfg.validate());
  EXPECT_THROW(SoftmaxLut{cfg}, std::invalid_argument);
}

TEST(GateSiLut, FloatApplyMatchesCircuitEmulation) {
  for (int b : {2, 8, 16}) {
    const double range = 4.0;  // the block's input range is +-range
    const sc::GateAssistedSI block = sc::make_gelu_block(b, -range, range, 16);
    const GateSiLut lut(block);
    std::vector<float> x;
    for (int i = 0; i <= 3000; ++i)  // sweep past the +-range saturation points
      x.push_back(static_cast<float>(-1.5 * range + 3.0 * range * i / 3000.0));
    x.push_back(std::numeric_limits<float>::infinity());
    x.push_back(-std::numeric_limits<float>::infinity());
    std::vector<float> y(x.size());
    lut.count_table().apply(x.data(), x.size(), y.data());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(y[i], static_cast<float>(block.transfer(x[i]))) << "B=" << b << " x=" << x[i];
    lut.count_table().apply(x.data(), x.size(), x.data());  // in place
    EXPECT_EQ(x, y);
  }
}

TEST(SoftmaxFsmLut, BitExactWithEmulatorAcrossConfigs) {
  std::vector<sc::FsmSoftmaxConfig> configs;
  {
    sc::FsmSoftmaxConfig cfg;  // Table IV-style defaults at m = 8
    cfg.m = 8;
    cfg.bsl = 128;
    configs.push_back(cfg);
    cfg.bsl = 512;
    cfg.n_states = 32;
    cfg.g = 4;
    configs.push_back(cfg);
    cfg = sc::FsmSoftmaxConfig{};
    cfg.m = 16;
    cfg.bsl = 256;
    cfg.scale = 6.0;
    cfg.quotient_bits = 8;
    cfg.seed = 0xBEEF;
    configs.push_back(cfg);
  }
  for (const auto& cfg : configs) {
    const SoftmaxFsmLut lut(cfg);
    const auto rows = sc::sample_attention_logits(cfg.m, 25, /*seed=*/77);
    for (const auto& row : rows) {
      const auto fast = lut(row);
      const auto ref = sc::softmax_fsm(row, cfg);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(fast[i], ref[i]) << "bsl=" << cfg.bsl << " seed=" << cfg.seed << " i=" << i;
    }
  }
}

TEST(SoftmaxFsmLut, RejectsBadInput) {
  sc::FsmSoftmaxConfig cfg;
  cfg.m = 8;
  const SoftmaxFsmLut lut(cfg);
  EXPECT_THROW(lut(std::vector<double>(3, 0.0)), std::invalid_argument);
  sc::FsmSoftmaxConfig bad = cfg;
  bad.bsl = 0;
  EXPECT_THROW(SoftmaxFsmLut{bad}, std::invalid_argument);
  bad = cfg;
  bad.scale = 0.0;  // the emulator's SNG rejects this too
  EXPECT_THROW(SoftmaxFsmLut{bad}, std::invalid_argument);
}

// Randomized, fixed-seed differential over drawn m, bsl, FSM shape, output
// precision, encoding scale and seed. Odd configs use a power-of-two scale,
// where an input can land exactly on one of its SNG's samples: the
// comparison `sample < p * range` must then give 0, as the emulator does.
TEST(SoftmaxFsmLut, RandomizedDifferentialAgainstEmulator) {
  std::mt19937_64 rng(20241019);
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  for (int c = 0; c < 80; ++c) {
    sc::FsmSoftmaxConfig cfg;
    cfg.m = pick(1, 20);
    cfg.bsl = pick(1, 300);
    cfg.n_states = pick(2, 48);
    cfg.g = pick(1, cfg.n_states - 1);
    cfg.scale = c % 2 ? std::ldexp(1.0, pick(-1, 3))
                      : std::uniform_real_distribution<double>(0.5, 8.0)(rng);
    cfg.quotient_bits = pick(1, 12);
    cfg.seed = rng();
    const SoftmaxFsmLut lut(cfg);
    auto rows = sc::sample_attention_logits(cfg.m, 6, rng());
    std::vector<double> row(static_cast<std::size_t>(cfg.m));
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = (i % 2 ? 1 : -1) * 3.0 * cfg.scale;
    rows.push_back(row);  // half the row far below the max: the -scale clamp
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = i % 3 ? -1e30 : 1e30;
    rows.push_back(row);
    rows.emplace_back(row.size(), 0.25);  // every element at the max
    // Element i (max 0) on a sample of the emulator's per-element SNG: with
    // a power-of-two scale, p * range is then exactly that sample.
    for (std::size_t i = 0; i < row.size(); ++i) {
      sc::LfsrSource src(16, static_cast<std::uint32_t>(cfg.seed + 0x9E37 * (i + 1)));
      const double range = src.range();
      double on_sample = range / 2;
      for (int t = 0; t < cfg.bsl; ++t) {
        const double v = src.next();
        if (v >= range / 2 && (on_sample == range / 2 || pick(0, 3) == 0)) on_sample = v;
      }
      row[i] = i == 0 ? 0.0 : -(2.0 * on_sample / range - 1.0) * cfg.scale;
    }
    rows.push_back(row);
    for (const auto& x : rows)
      ASSERT_EQ(lut(x), sc::softmax_fsm(x, cfg))
          << "config " << c << " m=" << cfg.m << " bsl=" << cfg.bsl << " n_states="
          << cfg.n_states << " g=" << cfg.g << " scale=" << cfg.scale
          << " quotient_bits=" << cfg.quotient_bits << " seed=" << cfg.seed;
  }
}

// ---------------------------------------------------------------------------
// Cached MAE protocols — bit-identical to the sc:: sweep protocols.
// ---------------------------------------------------------------------------

TEST(CachedMae, SoftmaxIterIdenticalToEmulatedProtocol) {
  TfCache cache;
  sc::SoftmaxIterConfig cfg;
  cfg.m = 16;
  for (std::uint64_t seed : {99ull, 808ull}) {
    const double cached = softmax_sc_mae_cached(cfg, 8, seed, cache);
    const double emulated = sc::softmax_sc_mae(cfg, 8, seed);
    EXPECT_EQ(cached, emulated) << "seed=" << seed;
  }
}

TEST(CachedMae, FsmPerRowSeedsIdenticalToEmulatedProtocol) {
  TfCache cache;
  sc::FsmSoftmaxConfig cfg;
  cfg.m = 8;
  cfg.bsl = 64;  // keep the per-row table builds cheap
  const double cached = softmax_fsm_mae_cached(cfg, 6, 77, cache, FsmSeedMode::kPerRowSeeds);
  const double emulated = sc::softmax_fsm_mae(cfg, 6, 77);
  EXPECT_EQ(cached, emulated);
  EXPECT_EQ(cache.size(), 6u) << "one threshold table per row seed";
  // A second run of the same protocol is served entirely from the cache.
  EXPECT_EQ(softmax_fsm_mae_cached(cfg, 6, 77, cache, FsmSeedMode::kPerRowSeeds), emulated);
  EXPECT_EQ(cache.size(), 6u);
}

TEST(CachedMae, FsmSharedSeedVariantUsesOneTable) {
  TfCache cache;
  sc::FsmSoftmaxConfig cfg;
  cfg.m = 8;
  cfg.bsl = 64;
  const double shared = softmax_fsm_mae_cached(cfg, 6, 77, cache, FsmSeedMode::kSharedSeed);
  EXPECT_EQ(cache.size(), 1u) << "every row must share the cfg.seed table";
  EXPECT_GT(shared, 0.0);
  EXPECT_LT(shared, 1.0);
}

TEST(TfCache, CachesFsmSoftmaxPerConfig) {
  TfCache cache;
  sc::FsmSoftmaxConfig cfg;
  cfg.m = 8;
  cfg.bsl = 128;
  const SoftmaxFsmLut* a = &cache.softmax_fsm(cfg);
  const SoftmaxFsmLut* b = &cache.softmax_fsm(cfg);
  EXPECT_EQ(a, b);
  cfg.seed += 1;  // the seed changes the LFSR streams, so it must key the cache
  const SoftmaxFsmLut* c = &cache.softmax_fsm(cfg);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(softmax_fsm_cache_key(cfg), softmax_fsm_cache_key(sc::FsmSoftmaxConfig{}));
}

TEST(TfCache, ReturnsStableReferencesPerConfig) {
  TfCache cache;
  sc::SoftmaxIterConfig cfg;
  cfg.m = 16;
  const SoftmaxLut* a = &cache.softmax(cfg);
  const SoftmaxLut* b = &cache.softmax(cfg);
  EXPECT_EQ(a, b);
  cfg.k = 4;
  const SoftmaxLut* c = &cache.softmax(cfg);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.size(), 2u);
  const GateSiLut* g1 = &cache.gelu(8, -4.0, 4.0, 16);
  const GateSiLut* g2 = &cache.gelu(8, -4.0, 4.0, 16);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(cache.size(), 3u);
}

// ---------------------------------------------------------------------------
// InferenceEngine
// ---------------------------------------------------------------------------

namespace {

vit::VitConfig tiny_topology() {
  vit::VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;  // 4 tokens
  cfg.dim = 16;
  cfg.layers = 1;
  cfg.heads = 2;
  cfg.mlp_ratio = 2;
  cfg.classes = 4;
  return cfg;
}

vit::ScInferenceConfig tiny_sc_config() {
  vit::ScInferenceConfig cfg;
  cfg.use_sc_softmax = true;
  cfg.use_sc_gelu = true;
  cfg.gelu_bsl = 8;
  cfg.gelu_range = 6.0;
  return cfg;
}

/// A model's own const infer path as a Servable, for vit::evaluate.
class ModelInfer final : public Servable {
 public:
  explicit ModelInfer(const vit::VisionTransformer& model) : model_(model) {}
  nn::Tensor infer(const nn::Tensor& batch) const override { return model_.infer(batch); }
  int input_dim() const override {
    const vit::VitConfig& c = model_.config();
    return c.channels * c.image_size * c.image_size;
  }
  int output_dim() const override { return model_.config().classes; }
  const std::string& variant_id() const override { return id_; }

 private:
  const vit::VisionTransformer& model_;
  std::string id_ = "model";
};

}  // namespace

TEST(InferenceEngine, EvaluateScMatchesManualCircuitHooks) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/21);
  const vit::Dataset data = vit::make_synthetic_vision(48, top.classes, 31, top.image_size);
  const vit::ScInferenceConfig cfg = tiny_sc_config();
  const double float_acc = vit::evaluate(ModelInfer(model), data);

  // Reference: hooks built directly on the circuit emulators, run serially
  // through the model's infer path.
  sc::SoftmaxIterConfig sm = cfg.softmax;
  sm.m = top.tokens();
  auto block = std::make_shared<sc::GateAssistedSI>(
      sc::make_gelu_block(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16));
  // The softmax hook gets one (batch, head) tile per call, one row per
  // token, from inside attention's parallel head loop.
  const int tokens = top.tokens();
  std::atomic<int> bad_rows{0};
  model.set_infer_hooks(
      [sm, tokens, &bad_rows](const float* scores, int rows, float* out) {
        if (rows != tokens) ++bad_rows;
        std::vector<double> row(static_cast<std::size_t>(tokens));
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < tokens; ++c)
            row[static_cast<std::size_t>(c)] = scores[static_cast<std::size_t>(r) * tokens + c];
          const auto y = sc::softmax_iterative_sc(row, sm);
          for (int c = 0; c < tokens; ++c)
            out[static_cast<std::size_t>(r) * tokens + c] =
                static_cast<float>(y[static_cast<std::size_t>(c)]);
        }
      },
      [block](const nn::Tensor& x) {
        nn::Tensor y(x.shape());
        for (std::size_t i = 0; i < x.size(); ++i)
          y[i] = static_cast<float>(block->transfer(x[i]));
        return y;
      });
  const double ref_acc = vit::evaluate(ModelInfer(model), data);
  EXPECT_EQ(bad_rows.load(), 0);
  // forward never sees a hook: the training-path evaluate stays float.
  EXPECT_EQ(vit::evaluate(model, data), float_acc);
  model.set_infer_hooks({}, {});

  const double sc_acc = vit::evaluate_sc(model, data, cfg);
  EXPECT_EQ(sc_acc, ref_acc);

  // The in-place servable cleared its hooks: infer is float again.
  EXPECT_EQ(vit::evaluate(ModelInfer(model), data), float_acc);
}

TEST(InferenceEngine, SubmitAgreesWithBatchInfer) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/23);
  const vit::Dataset data = vit::make_synthetic_vision(24, top.classes, 33, top.image_size);
  const vit::ScInferenceConfig cfg = tiny_sc_config();

  EngineOptions opts;
  opts.max_batch = 8;
  opts.max_delay = std::chrono::microseconds(5000);
  // One slot: the batcher never takes the idle cutoff, so the submits
  // coalesce (asserted below) instead of each leaving on its own.
  opts.concurrent_forwards = 1;
  ThreadPool sc_pool(2);
  const auto registry = in_place_sc_registry(model, cfg, sc_pool);
  InferenceEngine engine(registry, opts);

  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  const std::vector<int> sync_labels = infer_labels(*registry, "sc", all.images);

  const int pixels = all.images.dim(1);
  std::vector<std::future<Prediction>> futs;
  for (int r = 0; r < data.size(); ++r) {
    std::vector<float> img(static_cast<std::size_t>(pixels));
    for (int c = 0; c < pixels; ++c) img[static_cast<std::size_t>(c)] = all.images.at(r, c);
    futs.push_back(engine.submit(std::move(img)));
  }
  for (int r = 0; r < data.size(); ++r) {
    const Prediction pred = futs[static_cast<std::size_t>(r)].get();
    EXPECT_EQ(pred.label, sync_labels[static_cast<std::size_t>(r)]) << "image " << r;
    EXPECT_EQ(pred.logits.size(), static_cast<std::size_t>(top.classes));
    EXPECT_GE(pred.queue_ms, 0.0);
  }

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.images, static_cast<std::uint64_t>(data.size()));
  EXPECT_GE(st.batches, 1u);
  EXPECT_LE(st.max_batch_seen, opts.max_batch);
  EXPECT_GT(st.avg_batch(), 1.0);  // coalescing actually happened
}

TEST(InferenceEngine, MixedSizeBatchFailsOnlyTheOddRequest) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/24);
  const vit::ScInferenceConfig cfg = tiny_sc_config();

  EngineOptions opts;
  opts.max_batch = 2;  // force the good and the bad request into one batch
  opts.max_delay = std::chrono::microseconds(500'000);
  opts.concurrent_forwards = 1;  // no idle cutoff: the good request waits for the bad one
  ThreadPool sc_pool(1);
  InferenceEngine engine(in_place_sc_registry(model, cfg, sc_pool), opts);

  const int pixels = top.channels * top.image_size * top.image_size;
  auto good = engine.submit(std::vector<float>(static_cast<std::size_t>(pixels), 0.1f));
  auto bad = engine.submit(std::vector<float>(7, 0.1f));  // wrong size
  EXPECT_THROW(bad.get(), std::invalid_argument);
  const Prediction pred = good.get();
  EXPECT_GE(pred.label, 0);
  EXPECT_LT(pred.label, top.classes);

  // The worker survived; the engine keeps serving.
  auto again = engine.submit(std::vector<float>(static_cast<std::size_t>(pixels), 0.2f));
  EXPECT_GE(again.get().label, 0);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.images, 2u);  // the rejected request is not counted
  // The premise: the good and the bad request shared one full forward.
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.full_batches, 1u);
  EXPECT_EQ(st.max_batch_seen, 2);
}
