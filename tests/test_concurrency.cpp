// Concurrency tests for the re-entrant const inference path: N-thread
// VisionTransformer::infer must be bit-exact with the serial eval-mode
// forward, and concurrent engine submit() streams must agree with the
// servable's own batch forward. Also covers batcher backpressure and
// several consumers sharing one batcher.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "nn/module.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "runtime/thread_pool.h"
#include "serialize/model_io.h"
#include "test_util.h"
#include "vit/dataset.h"
#include "vit/model.h"
#include "vit/servable.h"

using namespace ascend;
using ascend::testing::in_place_sc_registry;
using ascend::testing::infer_labels;
using namespace ascend::runtime;

namespace {

vit::VitConfig tiny_topology() {
  vit::VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;  // 4 tokens
  cfg.dim = 16;
  cfg.layers = 2;
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

void expect_logits_equal(const nn::Tensor& got, const nn::Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << "logit " << i;
}

}  // namespace

// ---------------------------------------------------------------------------
// VisionTransformer::infer
// ---------------------------------------------------------------------------

TEST(VitInfer, BitExactWithSerialEvalForward) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/41);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  const vit::Dataset data = vit::make_synthetic_vision(12, top.classes, 51, top.image_size);

  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch batch = vit::take_batch(data, idx);

  // The eval-mode training forward initialises the LSQ steps and is the
  // bit-exactness reference.
  const nn::Tensor ref = model.forward(batch.images, /*training=*/false);
  const vit::VisionTransformer& cmodel = model;
  expect_logits_equal(cmodel.infer(batch.images), ref);
}

TEST(VitInfer, ConcurrentCallsBitExactWithSerialForward) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/42);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  model.set_softmax_kind(nn::SoftmaxKind::kApprox);  // exercise ApproxSoftmax::infer too
  const vit::Dataset data = vit::make_synthetic_vision(24, top.classes, 52, top.image_size);

  // Per-thread disjoint inputs plus one shared input that every thread runs.
  constexpr int kThreads = 8;
  const int per_thread = data.size() / kThreads;
  std::vector<nn::Tensor> inputs(kThreads);
  std::vector<nn::Tensor> refs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    std::vector<int> idx(static_cast<std::size_t>(per_thread));
    std::iota(idx.begin(), idx.end(), t * per_thread);
    inputs[static_cast<std::size_t>(t)] = vit::take_batch(data, idx).images;
    refs[static_cast<std::size_t>(t)] =
        model.forward(inputs[static_cast<std::size_t>(t)], /*training=*/false);
  }

  const vit::VisionTransformer& cmodel = model;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        const nn::Tensor got = cmodel.infer(inputs[static_cast<std::size_t>(t)]);
        const nn::Tensor& want = refs[static_cast<std::size_t>(t)];
        if (got.shape() != want.shape()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < want.size(); ++i)
          if (got[i] != want[i]) {
            mismatches.fetch_add(1);
            break;
          }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Member state was untouched: the training forward still reproduces refs.
  expect_logits_equal(model.forward(inputs[0], /*training=*/false), refs[0]);
}

TEST(VitInfer, LeavesNoFeatureTaps) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/43);
  const vit::Dataset data = vit::make_synthetic_vision(4, top.classes, 53, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch batch = vit::take_batch(data, idx);

  (void)model.forward(batch.images, /*training=*/false);
  const std::size_t taps = model.block_outputs().size();
  (void)static_cast<const vit::VisionTransformer&>(model).infer(batch.images);
  EXPECT_EQ(model.block_outputs().size(), taps);  // infer never rewrites the KD taps
}

// ---------------------------------------------------------------------------
// InferenceEngine concurrency
// ---------------------------------------------------------------------------

TEST(EngineConcurrency, ConcurrentSubmitStreamsMatchBatchInfer) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/44);
  const vit::Dataset data = vit::make_synthetic_vision(32, top.classes, 54, top.image_size);
  const vit::ScInferenceConfig cfg = tiny_sc_config();

  EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(2000);
  opts.concurrent_forwards = 3;
  ThreadPool sc_pool(2);
  const auto registry = in_place_sc_registry(model, cfg, sc_pool);
  InferenceEngine engine(registry, opts);

  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  const std::vector<int> sync_labels = infer_labels(*registry, "sc", all.images);
  const int pixels = all.images.dim(1);

  // Several client threads each stream a disjoint slice of the dataset.
  constexpr int kClients = 4;
  const int per_client = data.size() / kClients;
  std::vector<std::vector<int>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const int r = c * per_client + i;
        std::vector<float> img(static_cast<std::size_t>(pixels));
        for (int p = 0; p < pixels; ++p) img[static_cast<std::size_t>(p)] = all.images.at(r, p);
        got[static_cast<std::size_t>(c)].push_back(engine.submit(std::move(img)).get().label);
      }
    });
  }
  for (auto& th : clients) th.join();

  for (int c = 0; c < kClients; ++c)
    for (int i = 0; i < per_client; ++i)
      EXPECT_EQ(got[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
                sync_labels[static_cast<std::size_t>(c * per_client + i)])
          << "client " << c << " image " << i;

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.images, static_cast<std::uint64_t>(kClients * per_client));
  EXPECT_GE(st.max_in_flight, 1);
  EXPECT_LE(st.max_in_flight, opts.concurrent_forwards);
}

TEST(EngineConcurrency, ConcurrentBatchInferCallersAgree) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/45);
  const vit::Dataset data = vit::make_synthetic_vision(16, top.classes, 55, top.image_size);
  const vit::ScInferenceConfig cfg = tiny_sc_config();

  ThreadPool sc_pool(2);
  const auto registry = in_place_sc_registry(model, cfg, sc_pool);

  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  const std::vector<int> ref = infer_labels(*registry, "sc", all.images);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 2; ++rep)
        if (infer_labels(*registry, "sc", all.images) != ref) mismatches.fetch_add(1);
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Registry hot-swap and multi-variant serving under concurrency (the TSan CI
// job drives these).
// ---------------------------------------------------------------------------

TEST(RegistryConcurrency, HotSwapMidTrafficIsBitExactWithQuiescedServing) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/47);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  const vit::Dataset data = vit::make_synthetic_vision(24, top.classes, 56, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  (void)model.forward(all.images, /*training=*/false);  // latch the LSQ steps

  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "m"));
  EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(1000);
  opts.concurrent_forwards = 2;
  InferenceEngine engine(reg, opts);

  // Quiesced reference: no swaps in flight.
  const std::vector<int> ref = infer_labels(*reg, "m", all.images);
  const int pixels = all.images.dim(1);

  // Client threads stream the dataset while the main thread keeps
  // hot-swapping freshly cloned (re-frozen) servables of the same weights.
  constexpr int kClients = 3;
  const int per_client = data.size() / kClients;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int rep = 0; rep < 3; ++rep)
        for (int i = 0; i < per_client; ++i) {
          const int r = c * per_client + i;
          std::vector<float> img(static_cast<std::size_t>(pixels));
          for (int p = 0; p < pixels; ++p) img[static_cast<std::size_t>(p)] = all.images.at(r, p);
          const Prediction pred = engine.submit(std::move(img)).get();
          if (pred.label != ref[static_cast<std::size_t>(r)]) mismatches.fetch_add(1);
        }
    });
  }
  for (int swap = 0; swap < 8; ++swap) {
    reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "m"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reg->generation("m"), 9u);  // 1 initial + 8 swaps
  // The live servable after the swaps still matches the quiesced reference.
  EXPECT_EQ(infer_labels(*reg, "m", all.images), ref);
}

TEST(RegistryConcurrency, HotSwapToFreshMmapCheckpointMidTrafficIsBitExact) {
  // Same shape as HotSwapMidTrafficIsBitExactWithQuiescedServing, but every
  // swap cold-starts a NEW read-only mapping of the checkpoint file
  // (register_from_file): in-flight forwards keep the OLD mapping alive
  // through the servable's retained MmapCheckpoint until their snapshot
  // drops, so serving stays bit-exact while mappings churn underneath.
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/49);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  const vit::Dataset data = vit::make_synthetic_vision(24, top.classes, 58, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  (void)model.forward(all.images, /*training=*/false);  // latch the LSQ steps

  const std::string path = ::testing::TempDir() + "hotswap.ckpt";
  model.save(path);

  auto reg = std::make_shared<ModelRegistry>();
  reg->register_from_file("m", path, VariantKind::kPackedTernary);
  EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(1000);
  opts.concurrent_forwards = 2;
  InferenceEngine engine(reg, opts);

  const std::vector<int> ref = infer_labels(*reg, "m", all.images);
  const int pixels = all.images.dim(1);

  constexpr int kClients = 3;
  const int per_client = data.size() / kClients;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int rep = 0; rep < 3; ++rep)
        for (int i = 0; i < per_client; ++i) {
          const int r = c * per_client + i;
          std::vector<float> img(static_cast<std::size_t>(pixels));
          for (int p = 0; p < pixels; ++p) img[static_cast<std::size_t>(p)] = all.images.at(r, p);
          const Prediction pred = engine.submit(std::move(img)).get();
          if (pred.label != ref[static_cast<std::size_t>(r)]) mismatches.fetch_add(1);
        }
    });
  }
  for (int swap = 0; swap < 8; ++swap) {
    reg->register_from_file("m", path, VariantKind::kPackedTernary);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reg->generation("m"), 9u);  // 1 cold start + 8 swaps
  EXPECT_EQ(infer_labels(*reg, "m", all.images), ref);
}

TEST(RegistryConcurrency, ConcurrentMultiVariantSubmitsMatchPerVariantReferences) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/48);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  const vit::Dataset data = vit::make_synthetic_vision(16, top.classes, 57, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  (void)model.forward(all.images, /*training=*/false);

  ThreadPool sc_pool(2);
  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(
      vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "packed"));
  vit::ScServableOptions sopts;
  sopts.pool = &sc_pool;
  reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kScLut, "sc-lut",
                                  tiny_sc_config(), sopts));
  EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(1000);
  opts.concurrent_forwards = 2;
  opts.default_variant = "packed";
  InferenceEngine engine(reg, opts);

  const std::vector<int> ref_packed = infer_labels(*reg, "packed", all.images);
  const std::vector<int> ref_sc = infer_labels(*reg, "sc-lut", all.images);
  const int pixels = all.images.dim(1);

  // Interleaved mixed-priority streams against both variants at once.
  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool use_sc = (c % 2) == 1;
      RequestOptions ropts;
      ropts.variant = use_sc ? "sc-lut" : "packed";
      ropts.priority = (c % 3 == 0) ? Priority::kInteractive : Priority::kBatch;
      const std::vector<int>& ref = use_sc ? ref_sc : ref_packed;
      for (int r = 0; r < data.size(); ++r) {
        std::vector<float> img(static_cast<std::size_t>(pixels));
        for (int p = 0; p < pixels; ++p) img[static_cast<std::size_t>(p)] = all.images.at(r, p);
        const Prediction pred = engine.submit(std::move(img), ropts).get();
        if (pred.label != ref[static_cast<std::size_t>(r)]) mismatches.fetch_add(1);
        if (pred.variant != ropts.variant) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.images, static_cast<std::uint64_t>(kClients * data.size()));
  EXPECT_EQ(st.priority(Priority::kInteractive).served +
                st.priority(Priority::kBatch).served,
            st.images);
}

// ---------------------------------------------------------------------------
// Batcher backpressure
// ---------------------------------------------------------------------------

TEST(BatcherBackpressure, RejectPolicyFailsFastOnFullQueue) {
  Batcher b(8, std::chrono::microseconds(1'000'000), /*max_pending=*/2, OverflowPolicy::kReject);
  auto f1 = b.enqueue({1.0f});
  auto f2 = b.enqueue({2.0f});
  EXPECT_THROW(b.enqueue({3.0f}), QueueFullError);
  EXPECT_EQ(b.pending(), 2u);
  // Draining makes room again.
  b.close();
  EXPECT_EQ(b.next_batch().size(), 2u);
}

TEST(BatcherBackpressure, BlockPolicyWaitsForSpace) {
  Batcher b(1, std::chrono::microseconds(0), /*max_pending=*/1, OverflowPolicy::kBlock);
  auto f1 = b.enqueue({1.0f});
  std::atomic<bool> second_enqueued{false};
  std::thread producer([&] {
    auto f2 = b.enqueue({2.0f});  // blocks until the consumer drains a batch
    second_enqueued.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_enqueued.load());  // still parked on the full queue
  EXPECT_EQ(b.next_batch().size(), 1u);  // make room
  producer.join();
  EXPECT_TRUE(second_enqueued.load());
  EXPECT_EQ(b.pending(), 1u);
  b.close();
  EXPECT_EQ(b.next_batch().size(), 1u);
}

TEST(BatcherBackpressure, CloseWakesBlockedProducers) {
  Batcher b(4, std::chrono::microseconds(1'000'000), /*max_pending=*/1, OverflowPolicy::kBlock);
  auto f1 = b.enqueue({1.0f});
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      (void)b.enqueue({2.0f});
    } catch (const std::runtime_error&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  b.close();
  producer.join();
  EXPECT_TRUE(threw.load());
}

TEST(BatcherBackpressure, UnboundedQueueIgnoresPolicy) {
  Batcher b(2, std::chrono::microseconds(1000));  // max_pending = 0
  std::vector<std::future<Prediction>> futs;
  for (int i = 0; i < 64; ++i) futs.push_back(b.enqueue({1.0f}));
  EXPECT_EQ(b.pending(), 64u);
  b.close();
}

// ---------------------------------------------------------------------------
// Shutdown: queued requests fail promptly and typed, never hang or vanish.
// ---------------------------------------------------------------------------

TEST(BatcherBackpressure, CloseNowFailsQueuedRequestsWithTypedError) {
  Batcher b(4, std::chrono::microseconds(1'000'000));
  auto f1 = b.enqueue({1.0f});
  auto f2 = b.enqueue({2.0f});
  b.close_now();
  EXPECT_THROW(f1.get(), EngineShutdownError);
  EXPECT_THROW(f2.get(), EngineShutdownError);
  EXPECT_THROW((void)b.enqueue({3.0f}), EngineShutdownError);
  EXPECT_TRUE(b.next_batch().empty()) << "close_now leaves nothing to drain";
}

// ---------------------------------------------------------------------------
// Several consumers in Batcher::next_batch (the engine's forward workers)
// ---------------------------------------------------------------------------

TEST(BatcherConsumers, TwoConsumersTakeEveryRequestExactlyOnceInDisjointBatches) {
  constexpr int kRequests = 2000;
  constexpr int kMaxBatch = 8;
  Batcher b(kMaxBatch, std::chrono::microseconds(200));
  std::mutex mu;
  std::vector<int> seen(kRequests, 0);  // under mu
  std::vector<std::string> bad;         // under mu
  auto consume = [&] {
    for (;;) {
      std::vector<Request> batch = b.next_batch();
      if (batch.empty()) return;  // closed and drained
      std::lock_guard<std::mutex> lock(mu);
      if (batch.size() > static_cast<std::size_t>(kMaxBatch)) bad.push_back("oversized batch");
      for (Request& r : batch) {
        if (r.variant != batch[0].variant) bad.push_back("batch mixes variants");
        ++seen[static_cast<std::size_t>(r.image[0])];
        r.promise.set_value(Prediction{});
      }
    }
  };
  std::thread c1(consume), c2(consume);
  for (int i = 0; i < kRequests; ++i) {
    RequestOptions o;
    o.variant = (i % 3 == 0) ? "x" : "y";
    (void)b.enqueue({static_cast<float>(i)}, std::move(o));
  }
  b.close();  // queued requests still drain
  c1.join();
  c2.join();
  for (const std::string& what : bad) ADD_FAILURE() << what;
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "request " << i;
}

TEST(BatcherConsumers, LoneRequestClosesAtOnceWhileTwoConsumersWait) {
  // A 10 s latency budget: only the idle cutoff can release the request in
  // time, and it needs a second consumer waiting in next_batch.
  Batcher b(8, std::chrono::seconds(10));
  std::promise<double> first_ms;
  auto consume = [&] {
    for (;;) {
      std::vector<Request> batch = b.next_batch();
      if (batch.empty()) return;
      first_ms.set_value(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - batch[0].enqueued)
                             .count());
    }
  };
  std::thread c1(consume), c2(consume);
  auto fut = b.enqueue({1.0f});
  const double ms = first_ms.get_future().get();
  EXPECT_LT(ms, 5000.0) << "a lone request sat out max_delay with two consumers waiting";
  EXPECT_EQ(b.idle_closes(), 1u);
  b.close();
  c1.join();
  c2.join();
}

TEST(BatcherConsumers, ThreeConsumersTakeTwoOfThreeQueuedVariantsAtOnce) {
  // Three variants queued under a 10 s latency budget: a waiting consumer
  // takes the leader group whenever another consumer stays free after the
  // take, so two groups leave at once and the third waits for a consumer to
  // come back.
  Batcher b(8, std::chrono::seconds(10));
  for (const char* v : {"x", "y", "z"}) {
    RequestOptions o;
    o.variant = v;
    (void)b.enqueue({1.0f}, std::move(o));
  }
  std::mutex mu;
  std::condition_variable taken_cv;
  std::vector<std::string> taken;  // under mu; "" = closed and drained
  auto take_one = [&] {
    std::vector<Request> batch = b.next_batch();
    std::lock_guard<std::mutex> lock(mu);
    taken.push_back(batch.empty() ? "" : batch[0].variant);
    taken_cv.notify_all();
  };
  auto taken_reaches = [&](std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return taken_cv.wait_for(lock, timeout, [&] { return taken.size() >= n; });
  };
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) consumers.emplace_back(take_one);
  EXPECT_TRUE(taken_reaches(2, std::chrono::seconds(5)))
      << "queued groups sat out max_delay with three consumers waiting";
  EXPECT_FALSE(taken_reaches(3, std::chrono::milliseconds(50)))
      << "the last group left although no consumer stayed free after it";
  EXPECT_EQ(b.idle_closes(), 2u);
  EXPECT_EQ(b.pending(), 1u);

  // A consumer comes back: the one still waiting stays free, so the last
  // group leaves at once.
  consumers.emplace_back(take_one);
  EXPECT_TRUE(taken_reaches(3, std::chrono::seconds(5)))
      << "the returning consumer did not take the last group";
  EXPECT_EQ(b.idle_closes(), 3u);
  b.close();  // releases the consumer still waiting
  for (std::thread& c : consumers) c.join();
  std::sort(taken.begin(), taken.end());  // consumers record outside the queue lock
  EXPECT_EQ(taken, (std::vector<std::string>{"", "x", "y", "z"}));
}

TEST(BatcherConsumers, ClosedLoopOverThreeVariantsNeverWaitsOutMaxDelay) {
  // A bulk pass over the served fidelity variants: 2 consumers with short
  // forwards, 4 clients with one request in flight each, a 50/25/25 variant
  // mix. A group is held only while taking it would leave no consumer
  // waiting, so no wait comes near the 10 s max_delay. A rule that holds a
  // group while both consumers wait would stall the loop; the 5 s limit
  // turns that stall into a failure.
  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  const auto max_delay = std::chrono::seconds(10);
  Batcher b(16, max_delay);
  auto consume = [&] {
    for (;;) {
      std::vector<Request> batch = b.next_batch();
      if (batch.empty()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));  // the forward
      for (Request& r : batch) {
        Prediction p;
        p.queue_ms =
            std::chrono::duration<double, std::milli>(r.trace.batch_close - r.enqueued).count();
        r.promise.set_value(std::move(p));
      }
    }
  };
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<int> served{0};
  std::mutex mu;
  double max_wait_ms = 0.0;  // under mu
  auto client = [&](int c) {
    for (int i = 0; i < kPerClient; ++i) {
      const int k = (c + i) % 4;
      RequestOptions o;
      o.variant = k < 2 ? "sc-lut" : (k == 2 ? "w2a2-packed" : "fp32");
      std::future<Prediction> f = b.enqueue({0.0f}, std::move(o));
      if (f.wait_until(give_up) != std::future_status::ready) return;
      const double q = f.get().queue_ms;
      served.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      max_wait_ms = std::max(max_wait_ms, q);
    }
  };
  std::thread c1(consume), c2(consume);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  b.close();  // cuts whatever a stalled loop left queued
  c1.join();
  c2.join();
  EXPECT_EQ(served.load(), kClients * kPerClient) << "the closed loop stalled on a held group";
  EXPECT_LT(max_wait_ms, 1000.0) << "a request waited near max_delay";
}

namespace {

/// Slow single-purpose servable: requests pile up in the queue behind it so
/// engine destruction finds real work still queued.
class SlowServable final : public Servable {
 public:
  SlowServable(std::string id, std::chrono::milliseconds delay)
      : id_(std::move(id)), delay_(delay) {}
  nn::Tensor infer(const nn::Tensor& batch) const override {
    std::this_thread::sleep_for(delay_);
    nn::Tensor logits({batch.dim(0), 2});
    for (int r = 0; r < batch.dim(0); ++r) logits.at(r, 0) = 1.0f;
    return logits;
  }
  int input_dim() const override { return 4; }
  int output_dim() const override { return 2; }
  const std::string& variant_id() const override { return id_; }

 private:
  std::string id_;
  std::chrono::milliseconds delay_;
};

}  // namespace

TEST(EngineShutdown, DestructionFailsQueuedRequestsPromptlyWithTypedError) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(
      std::make_shared<SlowServable>("slow", std::chrono::milliseconds(100)));
  EngineOptions opts;
  opts.max_batch = 1;  // one request per forward: the rest stays queued
  opts.max_delay = std::chrono::microseconds(100);
  opts.concurrent_forwards = 1;
  InferenceEngine* engine = new InferenceEngine(registry, opts);
  std::vector<std::future<Prediction>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(engine->submit(std::vector<float>(4, 0.5f)));
  delete engine;  // most requests are still queued behind the slow forward

  // Every future must already be resolved when the destructor returns —
  // in-flight work served, queued work failed typed, nothing left hanging.
  int served = 0, shut_down = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "destruction left a request unresolved";
    try {
      EXPECT_EQ(f.get().label, 0);
      ++served;
    } catch (const EngineShutdownError&) {
      ++shut_down;
    }
  }
  EXPECT_EQ(served + shut_down, 8);
  EXPECT_GT(shut_down, 0) << "queued requests should fail fast, not be served late";
}

TEST(EngineBackpressure, RejectPolicySurfacesThroughSubmit) {
  const vit::VitConfig top = tiny_topology();
  vit::VisionTransformer model(top, /*seed=*/46);
  const vit::ScInferenceConfig cfg = tiny_sc_config();

  EngineOptions opts;
  opts.max_batch = 2;
  opts.max_delay = std::chrono::microseconds(50'000);
  opts.concurrent_forwards = 1;
  opts.max_pending = 1;
  opts.overflow = OverflowPolicy::kReject;
  ThreadPool sc_pool(1);
  InferenceEngine engine(in_place_sc_registry(model, cfg, sc_pool), opts);

  const int pixels = top.channels * top.image_size * top.image_size;
  // Flood faster than one forward can drain; at least one submit must be
  // rejected, and every accepted request must still resolve.
  std::vector<std::future<Prediction>> accepted;
  int rejected = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      accepted.push_back(engine.submit(std::vector<float>(static_cast<std::size_t>(pixels), 0.1f)));
    } catch (const QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  ASSERT_FALSE(accepted.empty());
  for (auto& f : accepted) EXPECT_GE(f.get().label, 0);
}

// ---------------------------------------------------------------------------
// Frozen-snapshot double-checked builds and concurrent GEMM callers
// (the TSan CI job drives these).
// ---------------------------------------------------------------------------

namespace {

/// Runs `infer` on 8 threads at once, all racing a frozen slot's first
/// (double-checked) build, and returns each thread's result.
std::vector<nn::Tensor> race_first_infers(const std::function<nn::Tensor()>& infer) {
  constexpr int kThreads = 8;
  std::vector<nn::Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] = infer(); });
  for (auto& t : threads) t.join();
  return results;
}

/// Every thread's result equals `want`, bit for bit.
void expect_all_equal(const std::vector<nn::Tensor>& results, const nn::Tensor& want) {
  for (std::size_t t = 0; t < results.size(); ++t) {
    ASSERT_EQ(results[t].shape(), want.shape()) << "thread " << t;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(results[t][i], want[i]) << "thread " << t << " element " << i;
  }
}

}  // namespace

TEST(SnapshotConcurrency, ConcurrentBatchNormFirstInferAgrees) {
  nn::BatchNorm bn(8);
  nn::Rng rng(33);
  nn::Tensor xt({16, 8});
  rng.fill_normal(xt, 0.2f, 1.1f);
  (void)bn.forward(xt, /*training=*/true);

  nn::Tensor x({6, 8});
  rng.fill_normal(x, 0, 1);
  const nn::BatchNorm& cbn = bn;
  const auto results = race_first_infers([&] { return cbn.infer(x); });
  EXPECT_TRUE(bn.frozen());
  expect_all_equal(results, results[0]);
}

TEST(SnapshotConcurrency, ConcurrentTernaryCodesFirstInferAgrees) {
  nn::Rng rng(34);
  nn::Linear lin(32, 24, rng);
  lin.set_weight_quant(nn::QuantSpec::ternary());
  lin.set_input_quant(nn::QuantSpec::ternary());
  nn::Tensor x({4, 32});
  rng.fill_normal(x, 0, 1);
  (void)lin.forward(x);  // latch steps; thaws any frozen slot

  const nn::Linear& clin = lin;
  const auto results = race_first_infers([&] { return clin.infer(x); });
  EXPECT_TRUE(lin.weight_quant().frozen(/*codes=*/true));
  expect_all_equal(results, results[0]);
}

TEST(SnapshotConcurrency, ConcurrentFpPanelsFirstInferAgrees) {
  // A full-precision Linear's first infers race the weight-panel build;
  // 16 rows take the packed path on every tier, and every result must equal
  // a fresh matmul.
  nn::Rng rng(37);
  nn::Linear lin(40, 36, rng, /*bias=*/false);
  nn::Tensor x({16, 40});
  rng.fill_normal(x, 0, 1);
  ASSERT_FALSE(lin.weight_quant().frozen(/*codes=*/false));

  const nn::Linear& clin = lin;
  const auto results = race_first_infers([&] { return clin.infer(x); });
  EXPECT_TRUE(lin.weight_quant().frozen(/*codes=*/false));
  expect_all_equal(results, nn::matmul(x, lin.weight().value));
}

TEST(SnapshotConcurrency, ConcurrentGeluCodeCutsFirstInferAgrees) {
  // W2A2 MLP: every thread's first infer races the fc2 input quantizer's
  // GELU code-cut build; every result must equal the unfused serial path.
  nn::Rng rng(36);
  vit::Mlp mlp(16, 48, rng);
  for (nn::Linear* lin : {&mlp.fc1(), &mlp.fc2()}) {
    lin->set_weight_quant(nn::QuantSpec::ternary());
    lin->set_input_quant(nn::QuantSpec::ternary());
  }
  nn::Tensor x({12, 16});
  rng.fill_normal(x, 0, 1.5f);
  (void)mlp.forward(x);  // latch steps; thaws any frozen slot
  ASSERT_TRUE(mlp.fc2().serves_ternary_codes());
  ASSERT_FALSE(mlp.fc2().input_quant().cuts_frozen());

  const vit::Mlp& cmlp = mlp;
  const auto results = race_first_infers([&] { return cmlp.infer(x); });
  EXPECT_TRUE(mlp.fc2().input_quant().cuts_frozen());
  expect_all_equal(results, mlp.fc2().infer(nn::Gelu().infer(mlp.fc1().infer(x))));
}

TEST(GemmConcurrency, ConcurrentMatmulCallersAgree) {
  // Caller threads issuing the same product at once, each sizing its own
  // OpenMP team (serial in the TSan build, which probes the shared kernel
  // state): every caller must reproduce the single-caller product bit-for-bit.
  nn::Rng rng(35);
  const int m = 320, k = 48, n = 40;
  nn::Tensor a({m, k}), b({k, n});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  const nn::Tensor expected = nn::matmul(a, b);

  constexpr int kCallers = 4;
  std::vector<nn::Tensor> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] { results[static_cast<std::size_t>(t)] = nn::matmul(a, b); });
  for (auto& t : callers) t.join();
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_EQ(results[static_cast<std::size_t>(t)].shape(), expected.shape()) << "caller " << t;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i], expected[i]) << "caller " << t;
  }
}
