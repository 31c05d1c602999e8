// Tests for the model-agnostic serving API: the Servable contract, the
// ModelRegistry (publish / get / generation-counted hot-swap), the
// priority/deadline-aware batcher scheduling, engine routing across
// variants, per-priority stats, and the ViT servable adapters
// (fp32 / W2A2 / SC) built from one trained model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "runtime/servable.h"
#include "test_util.h"
#include "vit/model.h"
#include "vit/servable.h"
#include "vit/train.h"

using namespace ascend;
using namespace ascend::runtime;
using ascend::testing::infer_labels;

namespace {

/// Deterministic toy servable: label = round(payload[0]) + `bias`, logits
/// one-hot. Records every served payload row in arrival order and every
/// forward's batch size, so tests can assert scheduling order, coalescing,
/// and that dropped requests never reach a forward. A forward whose first
/// row carries kHeldHead blocks until release_held(), so a test can hold a
/// forward slot for as long as it needs.
class MockServable final : public Servable {
 public:
  MockServable(std::string id, int bias = 0, std::chrono::milliseconds delay = {})
      : id_(std::move(id)), bias_(bias), delay_(delay) {}

  nn::Tensor infer(const nn::Tensor& batch) const override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (batch.at(0, 0) == kHeldHead) {
      std::unique_lock<std::mutex> lock(mu_);
      released_cv_.wait(lock, [this] { return released_; });
    }
    nn::Tensor logits({batch.dim(0), kClasses});
    std::lock_guard<std::mutex> lock(mu_);
    forwards_ += 1;
    batch_sizes_.push_back(batch.dim(0));
    for (int r = 0; r < batch.dim(0); ++r) {
      const int label = (static_cast<int>(batch.at(r, 0)) + bias_) % kClasses;
      logits.at(r, label) = 1.0f;
      served_.push_back(batch.at(r, 0));
    }
    return logits;
  }
  int input_dim() const override { return kInputDim; }
  int output_dim() const override { return kClasses; }
  const std::string& variant_id() const override { return id_; }

  int forwards() const {
    std::lock_guard<std::mutex> lock(mu_);
    return forwards_;
  }
  std::vector<float> served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }
  std::vector<int> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }
  /// Unblocks every held forward, now and later.
  void release_held() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    released_cv_.notify_all();
  }

  static constexpr int kInputDim = 4;
  static constexpr int kClasses = 8;
  static constexpr float kHeldHead = 7.0f;

 private:
  std::string id_;
  int bias_;
  std::chrono::milliseconds delay_;
  mutable std::mutex mu_;
  mutable std::condition_variable released_cv_;
  bool released_ = false;
  mutable int forwards_ = 0;
  mutable std::vector<float> served_;
  mutable std::vector<int> batch_sizes_;
};

std::vector<float> payload(float head) {
  std::vector<float> p(MockServable::kInputDim, 0.0f);
  p[0] = head;
  return p;
}

RequestOptions req(Priority p, std::string variant = {},
                   std::chrono::microseconds deadline = std::chrono::microseconds{0}) {
  RequestOptions o;
  o.priority = p;
  o.variant = std::move(variant);
  o.deadline = deadline;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

TEST(ModelRegistry, PublishGetAndVariantIdsInFirstPublishOrder) {
  ModelRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_FALSE(reg.contains("b"));
  EXPECT_EQ(reg.publish(std::make_shared<MockServable>("b")), 1u);
  EXPECT_EQ(reg.publish(std::make_shared<MockServable>("a")), 1u);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains("a"));
  EXPECT_EQ(reg.get("b")->variant_id(), "b");
  // First-publish order, not lexicographic.
  EXPECT_EQ(reg.variant_ids(), (std::vector<std::string>{"b", "a"}));
  EXPECT_THROW(reg.get("zzz"), UnknownVariantError);
  EXPECT_EQ(reg.try_get("zzz"), nullptr);
  EXPECT_THROW(reg.publish(nullptr), std::invalid_argument);
}

TEST(ModelRegistry, HotSwapBumpsGenerationAndKeepsOldSnapshotAlive) {
  ModelRegistry reg;
  auto v1 = std::make_shared<MockServable>("m", /*bias=*/0);
  reg.publish(v1);
  EXPECT_EQ(reg.generation("m"), 1u);
  const std::shared_ptr<const Servable> snapshot = reg.get("m");

  auto v2 = std::make_shared<MockServable>("m", /*bias=*/1);
  EXPECT_EQ(reg.publish(v2), 2u);
  EXPECT_EQ(reg.generation("m"), 2u);
  // The pre-swap snapshot still works: in-flight forwards are never broken.
  nn::Tensor x({1, MockServable::kInputDim});
  x.at(0, 0) = 3.0f;
  EXPECT_EQ(snapshot->infer(x).at(0, 3), 1.0f);  // bias 0: label 3
  EXPECT_EQ(reg.get("m")->infer(x).at(0, 4), 1.0f);  // bias 1: label 4
  EXPECT_EQ(reg.generation("absent"), 0u);
}

// ---------------------------------------------------------------------------
// Batcher: priority scheduling, variant grouping, deadlines
// ---------------------------------------------------------------------------

TEST(PriorityBatcher, InteractivePreemptsQueuedBatchTrafficInQueueOrder) {
  Batcher b(2, std::chrono::microseconds(0));  // close immediately once inspected
  auto f0 = b.enqueue(payload(0), req(Priority::kBatch));
  auto f1 = b.enqueue(payload(1), req(Priority::kBatch));
  auto f2 = b.enqueue(payload(2), req(Priority::kInteractive));
  auto f3 = b.enqueue(payload(3), req(Priority::kNormal));
  auto f4 = b.enqueue(payload(4), req(Priority::kInteractive));

  // Interactive first (arrival order within the class), then normal, then
  // the batch-class stragglers.
  auto batch = b.next_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].image[0], 2.0f);
  EXPECT_EQ(batch[1].image[0], 4.0f);
  batch = b.next_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].image[0], 3.0f);
  EXPECT_EQ(batch[1].image[0], 0.0f);
  batch = b.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].image[0], 1.0f);
  b.close();
}

TEST(PriorityBatcher, BatchesNeverMixVariants) {
  Batcher b(8, std::chrono::microseconds(0));
  auto f0 = b.enqueue(payload(0), req(Priority::kNormal, "x"));
  auto f1 = b.enqueue(payload(1), req(Priority::kNormal, "y"));
  auto f2 = b.enqueue(payload(2), req(Priority::kNormal, "x"));

  // Leader is the oldest normal request (variant x); its batch takes every
  // compatible x request but must leave y alone.
  auto batch = b.next_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].variant, "x");
  EXPECT_EQ(batch[0].image[0], 0.0f);
  EXPECT_EQ(batch[1].image[0], 2.0f);
  batch = b.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].variant, "y");
  b.close();
}

TEST(PriorityBatcher, HigherPriorityVariantReaimsTheNextBatch) {
  Batcher b(4, std::chrono::microseconds(200'000));  // 200 ms latency budget
  auto f0 = b.enqueue(payload(0), req(Priority::kBatch, "slow"));
  // While the consumer would wait out the batch's latency budget, an
  // interactive request for another variant arrives and must be served first.
  std::thread late([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto f = b.enqueue(payload(1), req(Priority::kInteractive, "fast",
                                       std::chrono::microseconds(1)));  // expires fast
  });
  // Use a deadline-free probe instead: enqueue on a second thread without
  // deadline so the re-aim is observable deterministically.
  std::thread late2([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    auto f = b.enqueue(payload(2), req(Priority::kInteractive, "fast"));
  });
  late.join();
  late2.join();
  auto batch = b.next_batch();
  ASSERT_GE(batch.size(), 1u);
  EXPECT_EQ(batch[0].variant, "fast");
  b.close();
}

TEST(PriorityBatcher, NegativeDeadlineFailsFastWithoutQueueing) {
  Batcher b(4, std::chrono::microseconds(1000));
  int drops = 0;
  b.set_drop_observer([&drops](Priority p) {
    EXPECT_EQ(p, Priority::kInteractive);
    ++drops;
  });
  auto fut = b.enqueue(payload(1), req(Priority::kInteractive, {},
                                       std::chrono::microseconds(-1)));
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_THROW(fut.get(), DeadlineExceededError);
  EXPECT_EQ(drops, 1);
  b.close();
}

TEST(PriorityBatcher, ExpiredRequestIsDroppedAtBatchFormation) {
  Batcher b(4, std::chrono::microseconds(30'000));
  auto doomed = b.enqueue(payload(1), req(Priority::kNormal, {},
                                          std::chrono::microseconds(1'000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let it expire
  auto live = b.enqueue(payload(2), req(Priority::kNormal));
  auto batch = b.next_batch();  // latency cutoff eventually releases `live`
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].image[0], 2.0f);
  EXPECT_THROW(doomed.get(), DeadlineExceededError);
  b.close();
}

TEST(PriorityBatcher, MemberDeadlineClosesTheBatchEarlyAndIsServed) {
  // A serviceable request with a deadline tighter than the latency budget
  // must close its batch ahead of the deadline and be served — the drop
  // path is reserved for requests the scheduler genuinely could not reach
  // in time.
  // The 100 ms deadline leaves room for the test thread to be descheduled
  // between enqueue and next_batch without the member expiring first.
  Batcher b(64, std::chrono::microseconds(2'000'000));  // 2 s batching budget
  auto tight = b.enqueue(payload(1), req(Priority::kNormal, {},
                                         std::chrono::microseconds(100'000)));
  auto lax = b.enqueue(payload(2), req(Priority::kNormal));
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = b.next_batch();
  const auto ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_EQ(batch.size(), 2u) << "the deadline member rides in the batch it forced closed";
  EXPECT_EQ(batch[0].image[0], 1.0f);
  EXPECT_EQ(batch[1].image[0], 2.0f);
  EXPECT_LT(ms, 1000.0) << "batch must close near the 100 ms deadline, not the 2 s budget";
  b.close();
}

TEST(PriorityBatcher, CrossVariantDeadlineFailsFastDuringAnotherGroupsWait) {
  // While the consumer waits out the leader group's cutoff, an expiring
  // request bound for a *different* variant must still be failed at its
  // deadline, not whenever that cutoff fires.
  Batcher b(64, std::chrono::microseconds(150'000));  // 150 ms batching budget
  auto leader = b.enqueue(payload(1), req(Priority::kInteractive, "a"));
  auto doomed = b.enqueue(payload(2), req(Priority::kBatch, "b",
                                          std::chrono::microseconds(20'000)));
  std::atomic<bool> failed_promptly{false};
  std::thread probe([&] {
    // Well after the 20 ms deadline, well before the 150 ms cutoff.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    failed_promptly.store(doomed.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready);
  });
  auto batch = b.next_batch();  // the "a" group, released by its cutoff
  probe.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].variant, "a");
  EXPECT_TRUE(failed_promptly.load());
  EXPECT_THROW(doomed.get(), DeadlineExceededError);
  b.close();
}

// ---------------------------------------------------------------------------
// InferenceEngine over a registry of mock variants
// ---------------------------------------------------------------------------

namespace {

EngineOptions quick_engine_opts() {
  EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(500);
  opts.concurrent_forwards = 1;
  return opts;
}

/// Polls until `engine` runs exactly `n` batch forwards; false after 5 s.
bool wait_for_in_flight(const InferenceEngine& engine, int n) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.in_flight() != n) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

TEST(ServingEngine, RoutesRequestsToNamedVariants) {
  auto reg = std::make_shared<ModelRegistry>();
  auto a = std::make_shared<MockServable>("a", /*bias=*/0);
  auto b = std::make_shared<MockServable>("b", /*bias=*/1);
  reg->publish(a);
  reg->publish(b);
  EngineOptions opts = quick_engine_opts();
  opts.default_variant = "a";
  InferenceEngine engine(reg, opts);

  auto fa = engine.submit(payload(3));                                  // default -> a
  auto fb = engine.submit(payload(3), req(Priority::kNormal, "b"));     // explicit -> b
  const Prediction pa = fa.get();
  const Prediction pb = fb.get();
  EXPECT_EQ(pa.label, 3);
  EXPECT_EQ(pa.variant, "a");
  EXPECT_EQ(pb.label, 4);
  EXPECT_EQ(pb.variant, "b");
  EXPECT_THROW(engine.submit(payload(0), req(Priority::kNormal, "nope")), UnknownVariantError);

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.priority(Priority::kNormal).queued, 2u);
  EXPECT_EQ(st.priority(Priority::kNormal).served, 2u);
  EXPECT_EQ(st.priority(Priority::kNormal).rejected, 1u);
}

TEST(ServingEngine, MultiVariantRegistryRequiresExplicitDefault) {
  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(std::make_shared<MockServable>("a"));
  reg->publish(std::make_shared<MockServable>("b"));
  EXPECT_THROW(InferenceEngine(reg, quick_engine_opts()), std::invalid_argument);
  EngineOptions opts = quick_engine_opts();
  opts.default_variant = "missing";
  EXPECT_THROW(InferenceEngine(reg, opts), UnknownVariantError);
  // A sole variant needs no explicit default.
  auto reg1 = std::make_shared<ModelRegistry>();
  reg1->publish(std::make_shared<MockServable>("only"));
  InferenceEngine engine(reg1, quick_engine_opts());
  EXPECT_EQ(engine.default_variant(), "only");
}

TEST(ServingEngine, InteractiveServedBeforeQueuedBatchUnderSaturatedBoundedQueue) {
  auto reg = std::make_shared<ModelRegistry>();
  auto mock = std::make_shared<MockServable>("m", 0, std::chrono::milliseconds(120));
  reg->publish(mock);
  EngineOptions opts = quick_engine_opts();
  opts.max_batch = 2;
  opts.max_delay = std::chrono::microseconds(0);
  opts.max_pending = 6;
  opts.overflow = OverflowPolicy::kReject;
  InferenceEngine engine(reg, opts);

  // Occupy the only forward slot, then saturate the bounded queue with batch
  // traffic and add interactive arrivals behind it.
  auto blocker = engine.submit(payload(99));
  ASSERT_TRUE(wait_for_in_flight(engine, 1)) << "blocker never reached the forward slot";
  std::vector<std::future<Prediction>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(engine.submit(payload(10 + i), req(Priority::kBatch)));
  for (int i = 0; i < 2; ++i)
    futs.push_back(engine.submit(payload(20 + i), req(Priority::kInteractive)));
  EXPECT_THROW(engine.submit(payload(0), req(Priority::kBatch)), QueueFullError);

  blocker.get();
  for (auto& f : futs) f.get();
  const std::vector<float> order = mock->served();
  ASSERT_EQ(order.size(), 7u);
  // After the blocker, both interactive payloads ran before any batch one.
  EXPECT_EQ(order[0], 99.0f);
  EXPECT_EQ(order[1], 20.0f);
  EXPECT_EQ(order[2], 21.0f);
  for (std::size_t i = 3; i < order.size(); ++i) EXPECT_GE(order[i], 10.0f);
  EXPECT_LT(order[3], 20.0f);

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.priority(Priority::kInteractive).served, 2u);
  EXPECT_EQ(st.priority(Priority::kBatch).served, 4u);
  EXPECT_EQ(st.priority(Priority::kBatch).rejected, 1u);
}

TEST(ServingEngine, ExpiredDeadlineFailsTypedWithoutRunningTheForward) {
  auto reg = std::make_shared<ModelRegistry>();
  auto mock = std::make_shared<MockServable>("m", 0, std::chrono::milliseconds(150));
  reg->publish(mock);
  EngineOptions opts = quick_engine_opts();
  opts.max_batch = 1;
  opts.max_delay = std::chrono::microseconds(0);
  InferenceEngine engine(reg, opts);

  auto blocker = engine.submit(payload(1));
  ASSERT_TRUE(wait_for_in_flight(engine, 1)) << "blocker never reached the forward slot";
  // Expires long before the blocker's 150 ms forward frees the slot.
  auto doomed = engine.submit(payload(2), req(Priority::kInteractive, {},
                                              std::chrono::microseconds(5'000)));
  EXPECT_THROW(doomed.get(), DeadlineExceededError);
  EXPECT_EQ(blocker.get().label, 1);
  // Give the workers a beat, then assert the dropped payload never ran.
  const std::vector<float> served = mock->served();
  for (float v : served) EXPECT_NE(v, 2.0f);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.priority(Priority::kInteractive).deadline_dropped, 1u);
  EXPECT_EQ(st.priority(Priority::kInteractive).served, 0u);
  EXPECT_EQ(st.priority(Priority::kInteractive).queued, 1u);
}

// Idle cutoff: with two forward slots, a group that is the whole queue
// closes while taking it leaves a slot free. max_delay is 10 s throughout,
// so any wait near it would show up as a hung test, not a slow pass.

namespace {

EngineOptions two_slot_opts() {
  EngineOptions opts = quick_engine_opts();
  opts.concurrent_forwards = 2;
  opts.max_delay = std::chrono::seconds(10);
  return opts;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

TEST(ServingEngine, IdleTwoSlotEngineServesALoneRequestAtOnce) {
  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(std::make_shared<MockServable>("m"));
  InferenceEngine engine(reg, two_slot_opts());

  const auto t0 = std::chrono::steady_clock::now();
  const Prediction pred = engine.submit(payload(3)).get();
  EXPECT_EQ(pred.label, 3);
  EXPECT_LT(ms_since(t0), 2000.0) << "a lone request sat out max_delay on an idle engine";
  EXPECT_LT(pred.queue_ms, 2000.0);
  EXPECT_EQ(engine.stats().idle_batches, 1u);
}

TEST(ServingEngine, GroupHeldForTheLastSlotClosesWhenTheOtherForwardEnds) {
  auto reg = std::make_shared<ModelRegistry>();
  auto mock = std::make_shared<MockServable>("m");
  reg->publish(mock);
  InferenceEngine engine(reg, two_slot_opts());

  // Hold one slot. The other stays free, so queued work may take it, but
  // only once holding it can buy nothing.
  auto blocker = engine.submit(payload(MockServable::kHeldHead));
  ASSERT_TRUE(wait_for_in_flight(engine, 1)) << "blocker never reached a forward slot";
  auto f1 = engine.submit(payload(1));
  auto f2 = engine.submit(payload(2));
  // Dispatching now would take the last slot: the pair keeps waiting for
  // companions.
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  EXPECT_EQ(engine.in_flight(), 1);

  const auto t0 = std::chrono::steady_clock::now();
  mock->release_held();
  EXPECT_EQ(f1.get().label, 1);
  EXPECT_EQ(f2.get().label, 2);
  EXPECT_LT(ms_since(t0), 2000.0) << "the freed slot did not wake the waiting group";
  EXPECT_EQ(blocker.get().label, static_cast<int>(MockServable::kHeldHead));

  // The two queued requests shared one forward, closed by the idle cutoff
  // (as was the blocker on the idle engine).
  EXPECT_EQ(mock->batch_sizes(), (std::vector<int>{1, 2}));
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.idle_batches, 2u);
}

TEST(ServingEngine, IdleWorkersServeTwoQueuedVariantsWithoutWaitingOutMaxDelay) {
  auto reg = std::make_shared<ModelRegistry>();
  auto a = std::make_shared<MockServable>("a");
  auto b = std::make_shared<MockServable>("b");
  reg->publish(a);
  reg->publish(b);
  EngineOptions opts = two_slot_opts();  // max_delay 10 s
  opts.max_batch = 2;
  opts.default_variant = "a";
  InferenceEngine engine(reg, opts);

  // Fill both slots: the first blocker leaves by the idle cutoff, the second
  // with a companion by the size cutoff (one worker is left, so the idle
  // cutoff cannot take it). Queue one request per variant behind them.
  auto held1 = engine.submit(payload(MockServable::kHeldHead));
  ASSERT_TRUE(wait_for_in_flight(engine, 1));
  auto held2 = engine.submit(payload(MockServable::kHeldHead));
  auto companion = engine.submit(payload(6));
  ASSERT_TRUE(wait_for_in_flight(engine, 2));
  auto fa = engine.submit(payload(1));
  auto fb = engine.submit(payload(2), req(Priority::kNormal, "b"));

  // Free both slots. The "a" group leaves by the idle cutoff while the other
  // worker stays free; that worker holds "b" until the "a" worker returns,
  // which then takes "b" by the idle cutoff too.
  a->release_held();
  ASSERT_EQ(fa.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "the \"a\" group sat out max_delay with both workers free";
  ASSERT_EQ(fb.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "the \"b\" group sat out max_delay after a worker returned";
  const Prediction pa = fa.get();
  const Prediction pb = fb.get();
  EXPECT_EQ(pa.variant, "a");
  EXPECT_EQ(pb.variant, "b");
  EXPECT_EQ(pa.label, 1);
  EXPECT_EQ(pb.label, 2);
  EXPECT_LT(pa.queue_ms, 2000.0);
  EXPECT_LT(pb.queue_ms, 2000.0);
  EXPECT_EQ(held1.get().label, static_cast<int>(MockServable::kHeldHead));
  EXPECT_EQ(held2.get().label, static_cast<int>(MockServable::kHeldHead));
  EXPECT_EQ(companion.get().label, 6);
  // The first blocker, "a" and "b" took the idle cutoff; the full pair did not.
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.batches, 4u);
  EXPECT_EQ(st.idle_batches, 3u);
}

TEST(ServingEngine, HeldForwardKeepsEveryQueuedVariantWaiting) {
  auto reg = std::make_shared<ModelRegistry>();
  auto a = std::make_shared<MockServable>("a");
  auto b = std::make_shared<MockServable>("b");
  reg->publish(a);
  reg->publish(b);
  EngineOptions opts = two_slot_opts();
  opts.default_variant = "a";
  InferenceEngine engine(reg, opts);

  // One forward held, two variants queued: taking either group would leave
  // no worker waiting, so neither leaves before the held forward returns.
  auto held = engine.submit(payload(MockServable::kHeldHead));
  ASSERT_TRUE(wait_for_in_flight(engine, 1));
  auto fa = engine.submit(payload(1));
  auto fb = engine.submit(payload(2), req(Priority::kNormal, "b"));
  EXPECT_EQ(fa.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  EXPECT_EQ(fb.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);
  EXPECT_EQ(engine.in_flight(), 1);

  const auto t0 = std::chrono::steady_clock::now();
  a->release_held();
  EXPECT_EQ(fa.get().label, 1);
  EXPECT_EQ(fb.get().label, 2);
  EXPECT_LT(ms_since(t0), 2000.0) << "the returned worker did not serve the queued groups";
  EXPECT_EQ(held.get().label, static_cast<int>(MockServable::kHeldHead));
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.batches, 3u);
  EXPECT_EQ(st.idle_batches, 3u);
}

TEST(ServingEngine, ThreeSlotEngineClosesALoneRequestWhileTwoWorkersWait) {
  auto reg = std::make_shared<ModelRegistry>();
  auto mock = std::make_shared<MockServable>("m");
  reg->publish(mock);
  EngineOptions opts = two_slot_opts();
  opts.concurrent_forwards = 3;
  InferenceEngine engine(reg, opts);

  // One forward held: two workers still wait, so a lone request is served
  // at once.
  auto held1 = engine.submit(payload(MockServable::kHeldHead));
  ASSERT_TRUE(wait_for_in_flight(engine, 1));
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(engine.submit(payload(3)).get().label, 3);
  EXPECT_LT(ms_since(t0), 2000.0) << "a lone request sat out max_delay beside two idle workers";
  // Its worker stops counting only after resolving the request.
  ASSERT_TRUE(wait_for_in_flight(engine, 1));

  // Two held: taking the lone request would leave no worker waiting, so it
  // waits for max_delay or a release.
  auto held2 = engine.submit(payload(MockServable::kHeldHead));
  ASSERT_TRUE(wait_for_in_flight(engine, 2));
  auto f = engine.submit(payload(5));
  EXPECT_EQ(f.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  EXPECT_EQ(engine.in_flight(), 2);

  t0 = std::chrono::steady_clock::now();
  mock->release_held();
  EXPECT_EQ(f.get().label, 5);
  EXPECT_LT(ms_since(t0), 2000.0) << "the released forwards did not wake the waiting request";
  EXPECT_EQ(held1.get().label, static_cast<int>(MockServable::kHeldHead));
  EXPECT_EQ(held2.get().label, static_cast<int>(MockServable::kHeldHead));
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.batches, 4u);
  EXPECT_EQ(st.idle_batches, 4u);
}

TEST(ServingEngine, PendingPlusInFlightNeverMissesAnUnresolvedRequest) {
  // ShardSet::drain polls pending().total, then in_flight(): a batch must be
  // counted in flight from the instant it leaves the queue, or the poll can
  // read 0 and 0 while its requests are still on their way to a forward.
  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(std::make_shared<MockServable>("m"));
  EngineOptions opts = quick_engine_opts();
  opts.concurrent_forwards = 2;
  opts.max_delay = std::chrono::microseconds(100);
  InferenceEngine engine(reg, opts);

  constexpr int kRequests = 2000;
  std::vector<std::future<Prediction>> futs(kRequests);
  std::atomic<int> submitted{0};
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::thread poller([&] {
    int verified = 0;  // futures [0, verified) were seen resolved
    while (!stop.load()) {
      const int n = submitted.load();  // before the reads: these were all submitted
      const std::size_t pending = engine.pending().total;
      const int in_flight = engine.in_flight();
      if (pending > 0 || in_flight > 0) {
        std::this_thread::yield();
        continue;
      }
      // Neither the queue nor a forward holds a request: every future
      // submitted before the reads must already be resolved.
      while (verified < n) {
        if (futs[static_cast<std::size_t>(verified)].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          misses.fetch_add(1);
          break;
        }
        ++verified;
      }
    }
  });
  for (int i = 0; i < kRequests; ++i) {
    futs[static_cast<std::size_t>(i)] = engine.submit(payload(static_cast<float>(i % 7)));
    submitted.store(i + 1);
  }
  for (const auto& f : futs) f.wait();  // const: safe beside the poller's wait_for
  stop.store(true);
  poller.join();
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().label, i % 7);
  EXPECT_EQ(misses.load(), 0) << "pending() and in_flight() both read 0 with a request unresolved";
}

TEST(ServingEngine, OneSlotEngineHoldsALoneRequestForMaxDelay) {
  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(std::make_shared<MockServable>("m"));
  EngineOptions opts = quick_engine_opts();
  opts.max_delay = std::chrono::milliseconds(50);
  InferenceEngine engine(reg, opts);

  const Prediction pred = engine.submit(payload(3)).get();
  EXPECT_GE(pred.queue_ms, 50.0);
  EXPECT_EQ(engine.stats().idle_batches, 0u);
}

// ---------------------------------------------------------------------------
// ViT servable adapters — one trained model, four fidelity variants
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

/// A W2A2-calibrated tiny model (one eval forward latches the LSQ steps and
/// the BN running stats stay at init — enough for bit-exactness tests).
vit::VisionTransformer calibrated_model(const vit::VitConfig& top, std::uint64_t seed,
                                        const nn::Tensor& calib) {
  vit::VisionTransformer model(top, seed);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  (void)model.forward(calib, /*training=*/false);
  return model;
}

}  // namespace

TEST(VitServables, CloneForServingIsBitExactWithSourceModel) {
  const vit::VitConfig top = tiny_topology();
  const vit::Dataset data = vit::make_synthetic_vision(8, top.classes, 71, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  vit::VisionTransformer model = calibrated_model(top, 61, all.images);

  const std::unique_ptr<vit::VisionTransformer> clone = model.clone_for_serving();
  EXPECT_EQ(clone->precision().name(), model.precision().name());
  const nn::Tensor ref = static_cast<const vit::VisionTransformer&>(model).infer(all.images);
  const nn::Tensor got = static_cast<const vit::VisionTransformer&>(*clone).infer(all.images);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]) << "logit " << i;
}

TEST(VitServables, W2a2AdapterMatchesSourceAndFp32Differs) {
  const vit::VitConfig top = tiny_topology();
  const vit::Dataset data = vit::make_synthetic_vision(6, top.classes, 72, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  vit::VisionTransformer model = calibrated_model(top, 62, all.images);

  const auto packed =
      vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "w2a2");
  EXPECT_EQ(packed->input_dim(), top.channels * top.image_size * top.image_size);
  EXPECT_EQ(packed->output_dim(), top.classes);
  const nn::Tensor ref = static_cast<const vit::VisionTransformer&>(model).infer(all.images);
  const nn::Tensor got = packed->infer(all.images);
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]) << "logit " << i;

  const auto fp32 = vit::make_servable(model.clone_for_serving(), VariantKind::kFp32, "fp32");
  const nn::Tensor fp = fp32->infer(all.images);
  ASSERT_EQ(fp.shape(), ref.shape());
  bool any_diff = false;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (fp[i] != ref[i]) any_diff = true;
  EXPECT_TRUE(any_diff) << "stripping fake-quantization must change the logits";

  // The adapters cloned: the source model's hooks / precision are untouched.
  EXPECT_EQ(model.precision().name(), vit::PrecisionSpec::w2a2r16().name());

  vit::VisionTransformer fp_model(top, /*seed=*/63);
  EXPECT_THROW(
      vit::make_servable(fp_model.clone_for_serving(), VariantKind::kPackedTernary, "w2a2"),
      std::invalid_argument);
}

TEST(VitServables, ScAdapterMatchesInPlaceServableAndLeavesSourceHookFree) {
  const vit::VitConfig top = tiny_topology();
  const vit::ScInferenceConfig cfg = tiny_sc_config();
  struct Input {
    std::uint64_t model_seed;
    int images;
    std::uint64_t data_seed;
    int threads;  // workers for the hooks' per-activation work
  };
  for (const Input in : {Input{64, 16, 73, 1}, Input{22, 32, 32, 2}}) {
    SCOPED_TRACE("model seed " + std::to_string(in.model_seed));
    const vit::Dataset data =
        vit::make_synthetic_vision(in.images, top.classes, in.data_seed, top.image_size);
    vit::VisionTransformer model(top, in.model_seed);

    // Reference: the model served in place (hooks on `model`), LUT-cached;
    // the in-place circuit emulation and evaluate_sc must agree with it.
    ThreadPool sc_pool(in.threads);
    vit::ScServableOptions sopts;
    sopts.pool = &sc_pool;
    const double ref_acc =
        vit::evaluate(*vit::make_sc_servable_in_place(model, cfg, sopts), data);
    EXPECT_EQ(vit::evaluate_sc(model, data, cfg), ref_acc);
    sopts.use_tf_cache = false;
    EXPECT_EQ(vit::evaluate(*vit::make_sc_servable_in_place(model, cfg, sopts), data), ref_acc);

    // Cloned SC adapters, circuit-emulated and LUT-cached.
    EXPECT_EQ(vit::evaluate(*vit::make_servable(model.clone_for_serving(),
                                                VariantKind::kScEmulated, "sc-emu", cfg, sopts),
                            data),
              ref_acc);
    EXPECT_EQ(vit::evaluate(*vit::make_servable(model.clone_for_serving(), VariantKind::kScLut,
                                                "sc-lut", cfg, sopts),
                            data),
              ref_acc);

    // The clones never touched the source model's hooks and the in-place
    // servables restored them: a plain evaluate is repeatable and hook-free.
    EXPECT_EQ(vit::evaluate(model, data), vit::evaluate(model, data));
  }
}

TEST(VitServables, EmulatedGeluWithoutPoolMatchesPooledBitForBit) {
  const vit::VitConfig top = tiny_topology();
  const vit::Dataset data = vit::make_synthetic_vision(3, top.classes, 77, top.image_size);
  vit::VisionTransformer model(top, /*seed=*/68);
  ThreadPool sc_pool(3);
  vit::ScServableOptions pooled;
  pooled.pool = &sc_pool;
  // No pool: the circuit-emulated GELU runs on the calling thread.
  const auto inline_sv = vit::make_servable(model.clone_for_serving(), VariantKind::kScEmulated,
                                            "sc-emulated", tiny_sc_config());
  const auto pooled_sv = vit::make_servable(model.clone_for_serving(), VariantKind::kScEmulated,
                                            "sc-emulated", tiny_sc_config(), pooled);
  for (const int batch : {1, 3}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<int> idx(static_cast<std::size_t>(batch));
    std::iota(idx.begin(), idx.end(), 0);
    const nn::Tensor images = vit::take_batch(data, idx).images;
    const nn::Tensor want = pooled_sv->infer(images);
    const nn::Tensor got = inline_sv->infer(images);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(ascend::testing::same_bits(got.data(), want.data(), want.size()));
  }
}

TEST(VitServables, FailedHookInstallRollsBackTheHalfInstalledHooks) {
  const vit::VitConfig top = tiny_topology();
  const vit::Dataset data = vit::make_synthetic_vision(4, top.classes, 76, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const nn::Tensor images = vit::take_batch(data, idx).images;
  vit::VisionTransformer model(top, /*seed=*/67);
  const vit::VisionTransformer& served = model;
  const nn::Tensor plain = served.infer(images);

  ThreadPool sc_pool(1);
  vit::ScServableOptions sopts;
  sopts.pool = &sc_pool;
  {
    // The SC softmax hook alone changes the logits, so a leftover one shows.
    vit::ScInferenceConfig softmax_only = tiny_sc_config();
    softmax_only.use_sc_gelu = false;
    const nn::Tensor sc = vit::make_sc_servable_in_place(model, softmax_only, sopts)->infer(images);
    bool any_diff = false;
    for (std::size_t i = 0; i < plain.size(); ++i) any_diff |= sc[i] != plain[i];
    ASSERT_TRUE(any_diff);
  }

  // The softmax hook installs first, then the GELU block rejects its BSL.
  vit::ScInferenceConfig bad = tiny_sc_config();
  bad.gelu_bsl = 1;
  for (const bool use_tf_cache : {true, false}) {
    SCOPED_TRACE(use_tf_cache ? "lut" : "emulated");
    sopts.use_tf_cache = use_tf_cache;
    EXPECT_THROW(vit::make_sc_servable_in_place(model, bad, sopts), std::invalid_argument);
    const nn::Tensor after = served.infer(images);
    for (std::size_t i = 0; i < plain.size(); ++i) ASSERT_EQ(after[i], plain[i]) << "logit " << i;
  }
  for (const VariantKind kind : {VariantKind::kScLut, VariantKind::kScEmulated})
    EXPECT_THROW(vit::make_servable(model.clone_for_serving(), kind, "sc", bad, sopts),
                 std::invalid_argument);
}

TEST(VitServables, EvaluateMatchesPerBatchInferAccuracy) {
  const vit::VitConfig top = tiny_topology();
  const vit::Dataset data = vit::make_synthetic_vision(40, top.classes, 75, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  vit::VisionTransformer model = calibrated_model(top, 66, vit::take_batch(data, idx).images);

  ThreadPool sc_pool(1);
  vit::ScServableOptions sopts;
  sopts.pool = &sc_pool;
  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kScLut, "sc-lut",
                                  tiny_sc_config(), sopts));
  reg->publish(
      vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "w2a2-packed"));
  reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kFp32, "fp32"));

  // Batches of 16 over 40 images: two full batches, then a partial tail.
  const int batch_size = 16;
  for (const char* variant : {"sc-lut", "w2a2-packed", "fp32"}) {
    SCOPED_TRACE(variant);
    int correct = 0;
    for (int start = 0; start < data.size(); start += batch_size) {
      std::vector<int> rows(static_cast<std::size_t>(std::min(batch_size, data.size() - start)));
      std::iota(rows.begin(), rows.end(), start);
      const vit::Batch batch = vit::take_batch(data, rows);
      const std::vector<int> labels = infer_labels(*reg, variant, batch.images);
      for (std::size_t r = 0; r < labels.size(); ++r)
        if (labels[r] == batch.labels[r]) ++correct;
    }
    EXPECT_EQ(vit::evaluate(*reg->get(variant), data, batch_size),
              100.0 * correct / data.size());
  }
}

TEST(VitServables, HotSwapRefreezesWithoutChangingResults) {
  const vit::VitConfig top = tiny_topology();
  const vit::Dataset data = vit::make_synthetic_vision(8, top.classes, 74, top.image_size);
  std::vector<int> idx(static_cast<std::size_t>(data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const vit::Batch all = vit::take_batch(data, idx);
  vit::VisionTransformer model = calibrated_model(top, 65, all.images);

  auto reg = std::make_shared<ModelRegistry>();
  reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "m"));
  const std::vector<int> before = infer_labels(*reg, "m", all.images);
  // Re-publish a freshly cloned servable (new frozen snapshots, same
  // weights): generation bumps, results stay bit-identical.
  reg->publish(vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "m"));
  EXPECT_EQ(reg->generation("m"), 2u);
  EXPECT_EQ(infer_labels(*reg, "m", all.images), before);
}
