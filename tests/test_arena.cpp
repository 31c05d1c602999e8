// Per-forward activation arenas (runtime/arena.h): bump/reset/consolidation
// mechanics, the thread-local scope plumbing, bit-exactness of arena-backed
// inference vs plain heap inference for all four serving variants, resize on
// batch-shape change, isolation of concurrent forwards, and the PR's core
// acceptance claim — steady-state allocations per forward == 0 on the sc-lut
// and w2a2-packed variants (this target links the operator-new interposer;
// see alloc_interpose in CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "runtime/alloc_count.h"
#include "runtime/arena.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "serialize/model_io.h"
#include "vit/model.h"
#include "vit/servable.h"
#include "vit/train.h"

using namespace ascend;
using namespace ascend::runtime;

// ---------------------------------------------------------------------------
// Arena mechanics
// ---------------------------------------------------------------------------

TEST(Arena, BumpAllocationIsAlignedAndTracked) {
  Arena arena;
  EXPECT_EQ(arena.used(), 0u);
  void* a = arena.allocate(100);
  void* b = arena.allocate(40);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kDefaultAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kDefaultAlign, 0u);
  EXPECT_GE(arena.used(), 140u);
  EXPECT_GE(arena.capacity(), arena.used());
}

TEST(Arena, ResetConsolidatesToSingleSlabCoveringPeak) {
  Arena arena(1024);  // deliberately small: force multi-block growth
  for (int i = 0; i < 64; ++i) (void)arena.allocate(4096);
  EXPECT_GT(arena.block_count(), 1u);
  const std::size_t peak = arena.used();
  EXPECT_EQ(arena.peak(), peak);
  arena.reset();
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_GE(arena.capacity(), peak);
  // The same demand is now served with no further growth or consolidation.
  const std::uint64_t cons = arena.consolidations();
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 64; ++i) (void)arena.allocate(4096);
    EXPECT_EQ(arena.block_count(), 1u) << "steady-state cycle " << cycle;
    arena.reset();
  }
  EXPECT_EQ(arena.consolidations(), cons);
}

TEST(Arena, ScopesInstallSuspendAndRestore) {
  EXPECT_EQ(Arena::current(), nullptr);
  Arena a1, a2;
  {
    ArenaScope s1(a1);
    EXPECT_EQ(Arena::current(), &a1);
    {
      ArenaScope s2(a2);
      EXPECT_EQ(Arena::current(), &a2);
      {
        HeapScope h;
        EXPECT_EQ(Arena::current(), nullptr);
      }
      EXPECT_EQ(Arena::current(), &a2);
    }
    EXPECT_EQ(Arena::current(), &a1);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

TEST(Arena, TensorsCarveFromTheInstalledArena) {
  Arena arena;
  nn::Tensor heap_t({4, 8});
  EXPECT_FALSE(heap_t.arena_backed());
  {
    ArenaScope scope(arena);
    nn::Tensor t({4, 8});
    EXPECT_TRUE(t.arena_backed());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % Arena::kDefaultAlign, 0u);
    EXPECT_GE(arena.used(), 4u * 8u * sizeof(float));
    // Copying an arena tensor inside the scope stays in the arena; moving
    // out of the scope keeps pointing at arena storage (the lease must
    // outlive all reads — engine.cpp's process_batch ordering).
    nn::Tensor c = t;
    EXPECT_TRUE(c.arena_backed());
  }
  nn::Tensor after({2, 2});
  EXPECT_FALSE(after.arena_backed());
}

TEST(ArenaPool, LeasesRecycleWarmArenas) {
  ArenaPool pool;
  const Arena* first = nullptr;
  {
    ArenaLease lease(pool);
    first = &lease.arena();
    EXPECT_EQ(Arena::current(), &lease.arena());
    (void)lease.arena().allocate(1 << 16);
  }
  EXPECT_EQ(pool.created(), 1u);
  {
    ArenaLease lease(pool);
    EXPECT_EQ(&lease.arena(), first) << "the warm arena is reused, not rebuilt";
    EXPECT_EQ(lease.arena().used(), 0u) << "released arenas come back reset";
  }
  EXPECT_EQ(pool.created(), 1u);
}

// ---------------------------------------------------------------------------
// Arena-backed inference vs heap inference — all four variants
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

/// One calibrated W2A2 model and the four fidelity servables over it, plus a
/// deterministic image batch — the shared fixture of the equivalence tests.
struct VariantRig {
  vit::VitConfig top;
  vit::Dataset data;
  nn::Tensor images;
  vit::VisionTransformer model;
  ThreadPool sc_pool{1};  ///< the SC variants' hook pool; outlives `variants`
  std::vector<std::pair<const char*, std::shared_ptr<Servable>>> variants;

  explicit VariantRig(int samples = 6, std::uint64_t seed = 91,
                      vit::VitConfig topology = tiny_topology())
      : top(topology),
        data(vit::make_synthetic_vision(samples, top.classes, 81, top.image_size)),
        images(nn::Tensor({samples, top.channels * top.image_size * top.image_size})),
        model(top, seed) {
    std::vector<int> idx(static_cast<std::size_t>(data.size()));
    std::iota(idx.begin(), idx.end(), 0);
    images = vit::take_batch(data, idx).images;
    model.apply_precision(vit::PrecisionSpec::w2a2r16());
    (void)model.forward(images, /*training=*/false);  // latch LSQ steps
    vit::ScServableOptions sopts;
    sopts.pool = &sc_pool;
    const vit::ScInferenceConfig sc = tiny_sc_config();
    variants.emplace_back("w2a2-packed", vit::make_servable(model.clone_for_serving(),
                                                            VariantKind::kPackedTernary, "w2a2"));
    variants.emplace_back("sc-lut", vit::make_servable(model.clone_for_serving(),
                                                       VariantKind::kScLut, "sc-lut", sc, sopts));
    variants.emplace_back("sc-emu", vit::make_servable(model.clone_for_serving(),
                                                       VariantKind::kScEmulated, "sc-emu", sc,
                                                       sopts));
    variants.emplace_back(
        "fp32", vit::make_servable(model.clone_for_serving(), VariantKind::kFp32, "fp32"));
  }
};

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << what << " logit " << i;
}

/// Deep-copies `t` out of the arena so it can be compared after the scope.
/// HeapScope keeps the copy itself off the arena — without it the "copy"
/// would be carved from the same arena and dangle after reset().
nn::Tensor copy_out(const nn::Tensor& t) {
  HeapScope heap;
  nn::Tensor out = nn::Tensor::uninitialized(t.shape());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = t[i];
  return out;
}

}  // namespace

TEST(ArenaInference, BitExactVsHeapForAllFourVariants) {
  VariantRig rig;
  for (const auto& [name, servable] : rig.variants) {
    const nn::Tensor heap_logits = servable->infer(rig.images);
    Arena arena;
    nn::Tensor first, second;
    {
      ArenaScope scope(arena);
      first = copy_out(servable->infer(rig.images));  // sizing pass
    }
    arena.reset();  // consolidate to peak
    {
      ArenaScope scope(arena);
      second = copy_out(servable->infer(rig.images));  // warm reuse pass
    }
    arena.reset();
    expect_bitwise_equal(first, heap_logits, name);
    expect_bitwise_equal(second, heap_logits, name);
    EXPECT_EQ(arena.block_count(), 1u) << name;
  }
}

TEST(ArenaInference, ArenaResizesAcrossBatchShapeChanges) {
  VariantRig rig(/*samples=*/9);
  const auto& servable = rig.variants[0].second;  // w2a2-packed

  Arena arena;
  // Size on batch 3, then overflow with batch 9: the resize is just another
  // sizing cycle, and results stay bit-exact with heap inference throughout.
  nn::Tensor batch3 = nn::Tensor::uninitialized({3, rig.images.dim(1)});
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < rig.images.dim(1); ++c) batch3.at(r, c) = rig.images.at(r, c);
  const nn::Tensor heap3 = servable->infer(batch3);
  const nn::Tensor heap9 = servable->infer(rig.images);
  {
    ArenaScope scope(arena);
    expect_bitwise_equal(copy_out(servable->infer(batch3)), heap3, "batch 3 sizing");
  }
  arena.reset();
  const std::size_t peak3 = arena.peak();
  {
    ArenaScope scope(arena);
    expect_bitwise_equal(copy_out(servable->infer(rig.images)), heap9, "batch 9 resize");
  }
  EXPECT_GT(arena.peak(), peak3) << "larger batch must raise the high-water mark";
  arena.reset();
  EXPECT_EQ(arena.block_count(), 1u);
  {
    ArenaScope scope(arena);
    expect_bitwise_equal(copy_out(servable->infer(rig.images)), heap9, "batch 9 warm");
  }
  EXPECT_EQ(arena.block_count(), 1u) << "consolidated slab absorbs the resized demand";
}

TEST(ArenaInference, ConcurrentForwardsUseIsolatedArenas) {
  // Four threads, each leasing its own arena from a shared pool and running
  // the same forward: every result must match the serial heap result
  // bit-for-bit (the TSan job runs this too).
  VariantRig rig;
  const auto& servable = rig.variants[0].second;
  const nn::Tensor heap_logits = servable->infer(rig.images);
  ArenaPool pool;
  constexpr int kThreads = 4;
  std::vector<nn::Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 3; ++pass) {
        ArenaLease lease(pool);
        results[static_cast<std::size_t>(t)] = copy_out(servable->infer(rig.images));
      }
    });
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    expect_bitwise_equal(results[static_cast<std::size_t>(t)], heap_logits, "thread result");
  EXPECT_LE(pool.created(), static_cast<std::size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// The acceptance claim: steady-state allocations per forward == 0
// ---------------------------------------------------------------------------

namespace {

/// Allocations per forward at steady state: warm up inside the arena (sizing
/// pass + grow-only thread-local scratch), then measure the counter across
/// `iters` forwards.
std::uint64_t steady_state_allocs(const Servable& servable, const nn::Tensor& images,
                                  Arena& arena, int iters = 5) {
  for (int i = 0; i < 3; ++i) {
    ArenaScope scope(arena);
    (void)servable.infer(images);
    arena.reset();
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < iters; ++i) {
    ArenaScope scope(arena);
    (void)servable.infer(images);
    arena.reset();
  }
  return alloc_count() - before;
}

}  // namespace

TEST(AllocFree, SteadyStateZeroAllocsPerForwardOnServingVariants) {
  ASSERT_TRUE(alloc_counting_active())
      << "test_arena must link alloc_interpose (see CMakeLists.txt)";
  // The second input is bench_runtime_throughput's audit input: the bench
  // topology at batch 32. Its GEMMs have fewer i-blocks than OpenMP threads
  // on a multi-core host, so a GEMM team narrower than the full width would
  // let libgomp retire workers whose replacements rebuild their thread-local
  // pack scratch on every forward.
  for (const auto& [top, samples] : {std::pair{tiny_topology(), 6},
                                     std::pair{vit::VitConfig::bench_topology(10), 32}}) {
    SCOPED_TRACE("dim " + std::to_string(top.dim) + ", batch " + std::to_string(samples));
    VariantRig rig(samples, /*seed=*/91, top);
    Arena arena;
    for (const auto& [name, servable] : rig.variants) {
      if (std::string_view(name) == "sc-emu" || std::string_view(name) == "fp32")
        continue;  // emulated SC allocates inside softmax_iterative_sc by design
      EXPECT_EQ(steady_state_allocs(*servable, rig.images, arena), 0u)
          << name << ": steady-state forwards must not touch the heap";
    }
  }
}

TEST(AllocFree, HeapBackedForwardAllocatesForContrast) {
  // Sanity check that the interposer actually observes the infer path: the
  // same forward with no arena installed must report heap traffic.
  ASSERT_TRUE(alloc_counting_active());
  VariantRig rig;
  const auto& servable = rig.variants[0].second;
  (void)servable->infer(rig.images);  // warm the thread-local scratch
  const std::uint64_t before = alloc_count();
  (void)servable->infer(rig.images);
  EXPECT_GT(alloc_count() - before, 0u);
}

TEST(AllocFree, MmapBackedWeightsStayZeroAllocAtSteadyState) {
  // Checkpoint cold start must not regress the zero-alloc acceptance claim:
  // weights served as borrowed views into the read-only mapping behave like
  // heap weights on the steady-state path — no per-forward heap traffic.
  ASSERT_TRUE(alloc_counting_active());
  VariantRig rig;
  const std::string path = testing::TempDir() + "alloc_mmap.ckpt";
  rig.model.save(path);
  ModelRegistry registry;
  registry.register_from_file("w2a2", path, VariantKind::kPackedTernary);
  const auto servable = registry.get("w2a2");
  expect_bitwise_equal(servable->infer(rig.images), rig.variants[0].second->infer(rig.images),
                       "mmap cold start vs in-memory servable");
  Arena arena;
  EXPECT_EQ(steady_state_allocs(*servable, rig.images, arena), 0u)
      << "mmap-backed forwards must not touch the heap at steady state";
}

// ---------------------------------------------------------------------------
// Tensor copy audit pin
// ---------------------------------------------------------------------------

TEST(TensorCopies, InferPathCopyCountPinned) {
  // The infer-path copy audit (ops.cpp, module.cpp, quant.cpp, model.cpp)
  // eliminated every whole-tensor copy from the served forwards, fp32's
  // disabled residual quantizers included. Pin it at zero so a future
  // "Tensor y = x; mutate(y)" pattern re-fails review here.
  VariantRig rig;
  for (const auto& [name, servable] : rig.variants) {
    if (std::string_view(name) == "sc-emu") continue;  // not served in production
    (void)servable->infer(rig.images);  // snapshots latched
    const std::uint64_t before = nn::Tensor::copies();
    (void)servable->infer(rig.images);
    EXPECT_EQ(nn::Tensor::copies() - before, 0u) << name;
  }
}

TEST(TensorCopies, CounterObservesDeliberateCopies) {
  const std::uint64_t before = nn::Tensor::copies();
  nn::Tensor a({3, 3});
  nn::Tensor b = a;        // copy ctor
  nn::Tensor c;
  c = b;                   // copy assign
  nn::Tensor d = std::move(b);  // move: not counted
  (void)c;
  (void)d;
  EXPECT_EQ(nn::Tensor::copies() - before, 2u);
}
