// Chaos/robustness suite for the fault-injection framework and the
// self-healing serving stack (docs/robustness.md):
//   * failpoint mechanics — spec parsing, arm/fire/auto-disarm counters,
//     seeded deterministic probability draws, parked-spec adoption, the
//     delay and err actions, and zero allocations on the disabled path
//     (this target links alloc_interpose, see CMakeLists.txt);
//   * injection at each serving site: batcher.enqueue, engine.infer,
//     ckpt.*, registry.publish, and the front door's serve.accept /
//     serve.read / serve.write / router.route — every fault
//     surfaces as a typed error (or drops only the faulted connection),
//     never a crash or a silent wrong answer;
//   * self-healing: retry with backoff, fallback-variant degradation, the
//     forward watchdog, and canary-validated hot-swap rollback;
//   * the tentpole claim — a seeded randomized fault schedule under
//     concurrent mixed-priority traffic loses no request (every submit
//     resolves to success or a typed error) and the error rate returns to
//     zero once faults clear.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/rng.h"
#include "nn/tensor.h"
#include "runtime/alloc_count.h"
#include "runtime/arena.h"
#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/failpoint.h"
#include "runtime/registry.h"
#include "runtime/servable.h"
#include "serialize/checkpoint.h"
#include "serialize/model_io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "vit/model.h"
#include "vit/servable.h"

using namespace ascend;
using namespace ascend::runtime;
using serialize::CheckpointError;

namespace {

/// Deterministic toy servable (the test_servable idiom): label =
/// (payload[0] + bias) % kClasses, logits one-hot, optional per-forward
/// delay for watchdog tests.
class MockServable final : public Servable {
 public:
  MockServable(std::string id, int bias = 0, std::chrono::milliseconds delay = {})
      : id_(std::move(id)), bias_(bias), delay_(delay) {}

  nn::Tensor infer(const nn::Tensor& batch) const override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    nn::Tensor logits({batch.dim(0), kClasses});
    std::lock_guard<std::mutex> lock(mu_);
    forwards_ += 1;
    for (int r = 0; r < batch.dim(0); ++r) {
      const int label = (static_cast<int>(batch.at(r, 0)) + bias_) % kClasses;
      logits.at(r, label) = 1.0f;
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

  static constexpr int kInputDim = 4;
  static constexpr int kClasses = 8;

 private:
  std::string id_;
  int bias_;
  std::chrono::milliseconds delay_;
  mutable std::mutex mu_;
  mutable int forwards_ = 0;
};

std::vector<float> payload(float head) {
  std::vector<float> p(MockServable::kInputDim, 0.0f);
  p[0] = head;
  return p;
}

EngineOptions quick_opts() {
  EngineOptions o;
  o.max_batch = 4;
  o.max_delay = std::chrono::microseconds{500};
  o.concurrent_forwards = 1;
  return o;
}

/// Probe batch for canary validation: B rows with distinct head values.
nn::Tensor golden_batch(int rows) {
  nn::Tensor t({rows, MockServable::kInputDim});
  for (int r = 0; r < rows; ++r) t.at(r, 0) = static_cast<float>(r + 1);
  return t;
}

/// Unit-test site living at static storage (Sites register for the process
/// lifetime; a stack-local Site would dangle in the registry).
failpoint::Site g_unit_site{"test.unit"};

/// Every chaos test starts and ends with a clean site registry — armed specs
/// must never leak into a neighbouring test.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(FailpointSpec, ParsesModifiersAndActions) {
  const failpoint::FailSpec s = failpoint::parse_spec("p0.25,after2,n5,seed7,throw");
  EXPECT_EQ(s.action, failpoint::Action::kThrow);
  EXPECT_DOUBLE_EQ(s.probability, 0.25);
  EXPECT_EQ(s.skip, 2u);
  EXPECT_EQ(s.max_fires, 5u);
  EXPECT_EQ(s.seed, 7u);

  const failpoint::FailSpec d = failpoint::parse_spec("delay15");
  EXPECT_EQ(d.action, failpoint::Action::kDelay);
  EXPECT_EQ(d.delay_ms, 15);

  const failpoint::FailSpec o = failpoint::parse_spec("once,err");
  EXPECT_EQ(o.action, failpoint::Action::kError);
  EXPECT_EQ(o.max_fires, 1u);

  // Pure modifiers keep the default throw action.
  EXPECT_EQ(failpoint::parse_spec("p0.5").action, failpoint::Action::kThrow);
}

TEST(FailpointSpec, RejectsMalformedInput) {
  EXPECT_THROW(failpoint::parse_spec("p1.5"), std::invalid_argument);
  EXPECT_THROW(failpoint::parse_spec("p-0.1"), std::invalid_argument);
  EXPECT_THROW(failpoint::parse_spec("n0"), std::invalid_argument);
  EXPECT_THROW(failpoint::parse_spec("bogus"), std::invalid_argument);
  EXPECT_THROW(failpoint::parse_spec("throw,,err"), std::invalid_argument);
  EXPECT_THROW((void)failpoint::arm("engine.infer", "delay-3"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Site mechanics
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ArmedSiteFiresCountsAndAutoDisarms) {
  EXPECT_FALSE(g_unit_site.armed());
  EXPECT_TRUE(failpoint::arm("test.unit", "n2,throw"));
  EXPECT_TRUE(g_unit_site.armed());

  auto hit = [] { ASCEND_FAILPOINT(g_unit_site); };
  EXPECT_THROW(hit(), failpoint::InjectedFaultError);
  EXPECT_THROW(hit(), failpoint::InjectedFaultError);
  // n2 exhausted: the site disarmed itself and the hot path is quiet again.
  EXPECT_FALSE(g_unit_site.armed());
  hit();

  const failpoint::SiteStats stats = g_unit_site.stats();
  EXPECT_EQ(stats.name, "test.unit");
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.fires, 2u);

  // The registry snapshot carries the same counters.
  bool found = false;
  for (const failpoint::SiteStats& s : failpoint::sites())
    if (s.name == "test.unit") {
      found = true;
      EXPECT_EQ(s.fires, 2u);
    }
  EXPECT_TRUE(found);
}

TEST_F(ChaosTest, SkipModifierPassesEarlyHitsThrough) {
  failpoint::arm("test.unit", "after3,once,throw");
  auto hit = [] { ASCEND_FAILPOINT(g_unit_site); };
  for (int i = 0; i < 3; ++i) hit();  // skipped hits pass clean
  EXPECT_THROW(hit(), failpoint::InjectedFaultError);
  EXPECT_FALSE(g_unit_site.armed());
}

TEST_F(ChaosTest, SeededProbabilityDrawIsReproducible) {
  auto fire_pattern = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        ASCEND_FAILPOINT(g_unit_site);
      } catch (const failpoint::InjectedFaultError&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };
  failpoint::arm("test.unit", "p0.5,seed42,throw");
  const std::vector<bool> first = fire_pattern();
  failpoint::arm("test.unit", "p0.5,seed42,throw");  // re-arm resets the RNG
  EXPECT_EQ(fire_pattern(), first) << "same seed must replay the same schedule";

  int fires = 0;
  for (const bool f : first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);

  failpoint::arm("test.unit", "p0,throw");
  for (int i = 0; i < 64; ++i) ASCEND_FAILPOINT(g_unit_site);  // p0 never fires
}

TEST_F(ChaosTest, DelayActionStallsWithoutFailing) {
  failpoint::arm("test.unit", "once,delay25");
  const auto start = std::chrono::steady_clock::now();
  ASCEND_FAILPOINT(g_unit_site);  // sleeps, then continues
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds{25});
  EXPECT_FALSE(g_unit_site.armed());
}

TEST_F(ChaosTest, ErrActionRunsTheNativeErrorPath) {
  failpoint::arm("test.unit", "once,err");
  bool native_path = false;
  ASCEND_FAILPOINT_OR(g_unit_site, native_path = true);
  EXPECT_TRUE(native_path);
  // Through the plain macro, err is promoted to InjectedFaultError.
  failpoint::arm("test.unit", "once,err");
  EXPECT_THROW([] { ASCEND_FAILPOINT(g_unit_site); }(), failpoint::InjectedFaultError);
}

TEST_F(ChaosTest, ParkedSpecIsAdoptedByLateRegisteringSite) {
  // Arming a name with no live site parks the spec — exactly how env specs
  // reach sites that register later at static init.
  EXPECT_FALSE(failpoint::arm("test.parked", "once,throw"));
  static failpoint::Site parked_site{"test.parked"};  // first run constructs it here
  EXPECT_TRUE(parked_site.armed()) << "registration must adopt the parked spec";
  EXPECT_THROW([] { ASCEND_FAILPOINT(parked_site); }(), failpoint::InjectedFaultError);
  // Re-arming the now-live site reports a live adoption.
  EXPECT_TRUE(failpoint::arm("test.parked", "once,throw"));
  failpoint::disarm("test.parked");
  EXPECT_FALSE(parked_site.armed());
}

// ---------------------------------------------------------------------------
// Injection at each serving site -> typed errors, engine keeps serving
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, EnqueueInjectionFailsFastAtSubmit) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("m"));
  InferenceEngine engine(registry, quick_opts());

  failpoint::arm("batcher.enqueue", "once,throw");
  EXPECT_THROW((void)engine.submit(payload(1.0f)), failpoint::InjectedFaultError);
  EXPECT_EQ(engine.submit(payload(2.0f)).get().label, 2);
}

TEST_F(ChaosTest, RegistryPublishInjectionLeavesTheRegistryUnchanged) {
  ModelRegistry registry;
  failpoint::arm("registry.publish", "once,throw");
  EXPECT_THROW(registry.publish(std::make_shared<MockServable>("m")),
               failpoint::InjectedFaultError);
  // The fault fired before any mutation: no partially-published entry.
  EXPECT_FALSE(registry.contains("m"));
  EXPECT_EQ(registry.publishes(), 0u);
  EXPECT_EQ(registry.publish(std::make_shared<MockServable>("m")), 1u);
  EXPECT_EQ(registry.publishes(), 1u);
}

TEST_F(ChaosTest, CheckpointSitesRaiseTypedCheckpointErrors) {
  vit::VitConfig top;
  top.image_size = 16;
  top.patch_size = 8;
  top.dim = 16;
  top.layers = 1;
  top.heads = 2;
  top.mlp_ratio = 2;
  top.classes = 4;
  vit::VisionTransformer model(top, 17);
  const std::string path = testing::TempDir() + "chaos_ckpt.ckpt";
  model.save(path);

  ModelRegistry registry;
  EXPECT_EQ(registry.register_from_file("fp32", path, VariantKind::kFp32), 1u);
  const std::shared_ptr<const Servable> incumbent = registry.get("fp32");

  // err action at ckpt.crc: the site raises its *native* typed error.
  failpoint::arm("ckpt.crc", "once,err");
  try {
    registry.register_from_file("fp32", path, VariantKind::kFp32);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("injected checksum fault"), std::string::npos);
  }
  // The failed swap counted as a rollback and the incumbent kept serving.
  EXPECT_EQ(registry.rollbacks(), 1u);
  EXPECT_EQ(registry.generation("fp32"), 1u);
  EXPECT_EQ(registry.get("fp32").get(), incumbent.get());

  failpoint::arm("ckpt.mmap", "once,err");
  try {
    registry.register_from_file("fp32", path, VariantKind::kFp32);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kIo);
  }
  EXPECT_EQ(registry.rollbacks(), 2u);
  EXPECT_EQ(registry.generation("fp32"), 1u);

  // With the sites quiet the same call swaps cleanly.
  EXPECT_EQ(registry.register_from_file("fp32", path, VariantKind::kFp32), 2u);
}

// ---------------------------------------------------------------------------
// Self-healing: retry, fallback degradation, watchdog
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, RetryRecoversFromTransientForwardFaults) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("m"));
  InferenceEngine engine(registry, quick_opts());

  failpoint::arm("engine.infer", "n2,throw");  // two transient faults, then healthy
  RequestOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.backoff = std::chrono::microseconds{100};
  const Prediction p = engine.submit(payload(3.0f), opts).get();
  EXPECT_EQ(p.label, 3);
  EXPECT_EQ(p.attempts, 3);
  EXPECT_FALSE(p.degraded);
  EXPECT_EQ(p.variant, "m");

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.priority(Priority::kNormal).retries, 2u);
  EXPECT_EQ(s.priority(Priority::kNormal).served, 1u);
  EXPECT_EQ(s.priority(Priority::kNormal).fallback_served, 0u);
}

TEST_F(ChaosTest, ExhaustedRetriesDegradeToTheFallbackVariant) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("primary", /*bias=*/0));
  registry->publish(std::make_shared<MockServable>("fb", /*bias=*/1));
  EngineOptions eopts = quick_opts();
  eopts.default_variant = "primary";
  InferenceEngine engine(registry, eopts);

  failpoint::arm("engine.infer", "n2,throw");  // both primary attempts fail
  RequestOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.backoff = std::chrono::microseconds{100};
  opts.retry.fallback_variant = "fb";
  const Prediction p = engine.submit(payload(3.0f), opts).get();
  EXPECT_TRUE(p.degraded);
  EXPECT_EQ(p.variant, "fb");
  EXPECT_EQ(p.label, 4) << "the fallback's bias must show in the answer";
  EXPECT_EQ(p.attempts, 3);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.priority(Priority::kNormal).retries, 1u);
  EXPECT_EQ(s.priority(Priority::kNormal).fallback_served, 1u);
  EXPECT_EQ(s.priority(Priority::kNormal).served, 1u);
}

TEST_F(ChaosTest, MissingFallbackVariantFailsTyped) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("m"));
  InferenceEngine engine(registry, quick_opts());

  failpoint::arm("engine.infer", "once,throw");
  RequestOptions opts;
  opts.retry.fallback_variant = "ghost";  // max_attempts 1: straight to fallback
  auto fut = engine.submit(payload(1.0f), opts);
  EXPECT_THROW(fut.get(), UnknownVariantError);

  // No fallback at all: the final primary error reaches the client.
  failpoint::arm("engine.infer", "once,throw");
  auto bare = engine.submit(payload(1.0f));
  EXPECT_THROW(bare.get(), failpoint::InjectedFaultError);

  EXPECT_EQ(engine.submit(payload(2.0f)).get().label, 2);
}

TEST_F(ChaosTest, WatchdogTripsTheWedgedForwardAndTheEngineKeepsServing) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("fast"));
  registry->publish(std::make_shared<MockServable>("slow", 0, std::chrono::milliseconds{250}));
  EngineOptions eopts = quick_opts();
  eopts.default_variant = "fast";
  eopts.forward_timeout = std::chrono::milliseconds{40};
  InferenceEngine engine(registry, eopts);

  RequestOptions to_slow;
  to_slow.variant = "slow";
  auto wedged = engine.submit(payload(1.0f), to_slow);
  EXPECT_THROW(wedged.get(), WatchdogTimeoutError);

  // The trip stopped counting the forward and started a replacement worker:
  // the engine serves on while the wedged forward still sleeps.
  EXPECT_EQ(engine.submit(payload(2.0f)).get().label, 2);
  const EngineStats s = engine.stats();
  EXPECT_GE(s.watchdog_trips, 1u);
  EXPECT_EQ(s.priority(Priority::kNormal).served, 1u)
      << "the abandoned forward's late result must be discarded, not served";
}

TEST_F(ChaosTest, WatchdogReleasedSlotWakesTheGroupHeldForTheLastSlot) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("fast"));
  registry->publish(std::make_shared<MockServable>("slow", 0, std::chrono::milliseconds{600}));
  EngineOptions eopts = quick_opts();
  eopts.default_variant = "fast";
  eopts.concurrent_forwards = 2;
  eopts.max_delay = std::chrono::seconds{10};
  eopts.forward_timeout = std::chrono::milliseconds{150};
  InferenceEngine engine(registry, eopts);

  RequestOptions to_slow;
  to_slow.variant = "slow";
  auto wedged = engine.submit(payload(1.0f), to_slow);
  for (int probe = 0; probe < 5000 && engine.in_flight() != 1; ++probe)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(engine.in_flight(), 1) << "the slow forward never started";

  // One slot is wedged, so the lone fast request waits for companions
  // rather than take the last slot...
  const auto t0 = std::chrono::steady_clock::now();
  auto fast = engine.submit(payload(2.0f));
  EXPECT_EQ(fast.wait_for(std::chrono::milliseconds{20}), std::future_status::timeout);
  // ...until the watchdog frees the wedged slot, which wakes it long before
  // max_delay (and before the wedged forward itself ends).
  EXPECT_EQ(fast.get().label, 2);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{5});
  EXPECT_THROW(wedged.get(), WatchdogTimeoutError);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.watchdog_trips, 1u);
  EXPECT_EQ(s.idle_batches, 2u);
}

// ---------------------------------------------------------------------------
// Canary-validated hot-swap
// ---------------------------------------------------------------------------

TEST(CanaryPublish, DivergingCandidateRollsBackAndIncumbentKeepsServing) {
  ModelRegistry registry;
  auto v1 = std::make_shared<MockServable>("m", /*bias=*/0);
  registry.publish(v1);

  CanaryOptions canary;
  canary.golden_input = golden_batch(3);
  canary.require_label_match = true;

  // bias=1 shifts every argmax: the canary must reject it.
  const PublishResult rejected =
      registry.publish_checked(std::make_shared<MockServable>("m", /*bias=*/1), canary);
  EXPECT_FALSE(rejected.published);
  EXPECT_EQ(rejected.generation, 1u) << "the incumbent's generation is unchanged";
  EXPECT_FALSE(rejected.error.empty());
  EXPECT_EQ(registry.rollbacks(), 1u);
  EXPECT_EQ(registry.get("m").get(), v1.get()) << "incumbent must keep serving bit-exact";

  // A label-identical candidate passes the same canary and goes live.
  const PublishResult accepted =
      registry.publish_checked(std::make_shared<MockServable>("m", /*bias=*/0), canary);
  EXPECT_TRUE(accepted.published);
  EXPECT_EQ(accepted.generation, 2u);
  EXPECT_TRUE(accepted.error.empty());
  EXPECT_EQ(registry.rollbacks(), 1u);
}

TEST(CanaryPublish, LogitDivergenceBudgetIsEnforced) {
  ModelRegistry registry;
  registry.publish(std::make_shared<MockServable>("m", /*bias=*/0));

  CanaryOptions canary;
  canary.golden_input = golden_batch(2);
  canary.max_abs_logit_diff = 0.5;  // one-hot shift diverges by exactly 1.0
  EXPECT_FALSE(
      registry.publish_checked(std::make_shared<MockServable>("m", /*bias=*/1), canary).published);

  canary.max_abs_logit_diff = 1.0;  // now inside the budget
  EXPECT_TRUE(
      registry.publish_checked(std::make_shared<MockServable>("m", /*bias=*/1), canary).published);
  EXPECT_EQ(registry.rollbacks(), 1u);
}

TEST(CanaryPublish, FirstPublishValidatesTheCandidateItself) {
  ModelRegistry registry;
  CanaryOptions canary;
  canary.golden_input = golden_batch(2);
  canary.require_label_match = true;  // no incumbent: only the self-checks run
  const PublishResult r =
      registry.publish_checked(std::make_shared<MockServable>("m"), canary);
  EXPECT_TRUE(r.published);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_THROW((void)registry.publish_checked(nullptr, canary), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The tentpole: seeded chaos schedule under concurrent mixed-priority traffic
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, SeededScheduleUnderMixedTrafficLosesNoRequestAndRecovers) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(std::make_shared<MockServable>("primary", /*bias=*/0));
  registry->publish(std::make_shared<MockServable>("fb", /*bias=*/1));
  EngineOptions eopts;
  eopts.max_batch = 8;
  eopts.max_delay = std::chrono::microseconds{200};
  eopts.concurrent_forwards = 2;
  eopts.default_variant = "primary";
  eopts.forward_timeout = std::chrono::milliseconds{2000};  // must not trip a healthy mock
  eopts.max_pending = 64;
  eopts.overflow = OverflowPolicy::kReject;
  InferenceEngine engine(registry, eopts);

  const std::uint64_t fires_before = failpoint::total_fires();
  failpoint::arm("engine.infer", "p0.3,seed11,throw");
  failpoint::arm("batcher.enqueue", "p0.05,seed12,throw");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> ok{0}, typed{0}, rejected{0};
  std::mutex unexpected_mu;
  std::vector<std::string> unexpected;
  auto note_unexpected = [&](std::string what) {
    std::lock_guard<std::mutex> lock(unexpected_mu);
    unexpected.push_back(std::move(what));
  };

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RequestOptions ropts;
        ropts.priority = static_cast<Priority>((t + i) % kNumPriorities);
        if (i % 2 == 0) {
          ropts.retry.max_attempts = 2;
          ropts.retry.backoff = std::chrono::microseconds{200};
          ropts.retry.fallback_variant = "fb";
        }
        if (i % 5 == 0) ropts.deadline = std::chrono::milliseconds{100};
        std::future<Prediction> fut;
        try {
          fut = engine.submit(payload(static_cast<float>(i % 7)), ropts);
        } catch (const failpoint::InjectedFaultError&) {
          rejected.fetch_add(1);
          continue;
        } catch (const QueueFullError&) {
          rejected.fetch_add(1);
          continue;
        } catch (const std::exception& e) {
          note_unexpected(std::string("submit threw: ") + e.what());
          continue;
        }
        try {
          const Prediction p = fut.get();
          if (p.label < 0) note_unexpected("resolved prediction carries no label");
          ok.fetch_add(1);
        } catch (const failpoint::InjectedFaultError&) {
          typed.fetch_add(1);
        } catch (const DeadlineExceededError&) {
          typed.fetch_add(1);
        } catch (const WatchdogTimeoutError&) {
          typed.fetch_add(1);
        } catch (const UnknownVariantError&) {
          typed.fetch_add(1);
        } catch (const std::exception& e) {
          note_unexpected(std::string("future resolved untyped: ") + e.what());
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  // No lost request: every submit resolved one way or another.
  EXPECT_EQ(ok.load() + typed.load() + rejected.load(), kThreads * kPerThread);
  for (const std::string& u : unexpected) ADD_FAILURE() << u;
  EXPECT_GT(failpoint::total_fires(), fires_before) << "the chaos schedule never fired";
  EXPECT_GT(ok.load(), 0) << "retry/fallback should pull some requests through";

  // Faults clear -> the error rate drops to zero: full recovery, no residue.
  failpoint::disarm_all();
  for (int i = 0; i < 40; ++i) EXPECT_EQ(engine.submit(payload(3.0f)).get().label, 3);

  const EngineStats s = engine.stats();
  std::uint64_t served = 0;
  for (int p = 0; p < kNumPriorities; ++p) {
    const PriorityStats& ps = s.by_priority[static_cast<std::size_t>(p)];
    EXPECT_LE(ps.served + ps.deadline_dropped, ps.queued)
        << "priority " << p << " counters out of order";
    served += ps.served;
  }
  EXPECT_EQ(served, static_cast<std::uint64_t>(ok.load()) + 40u)
      << "served counter must match the clients' successful resolutions";
}

// ---------------------------------------------------------------------------
// Zero-overhead-when-disabled: the hot path must stay allocation-free
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DisabledSiteAddsNoAllocations) {
  ASSERT_TRUE(alloc_counting_active())
      << "test_chaos must link alloc_interpose (see CMakeLists.txt)";
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 100000; ++i) ASCEND_FAILPOINT(g_unit_site);
  EXPECT_EQ(alloc_count() - before, 0u)
      << "the disarmed macro must be a bare atomic load, never heap traffic";
}

TEST_F(ChaosTest, SteadyStateForwardStaysAllocFreeWithFailpointsInTheBinary) {
  ASSERT_TRUE(alloc_counting_active());
  // A real W2A2 servable under an arena: the zero-alloc acceptance
  // claim from the arena PR must survive the failpoint instrumentation, with
  // an *unrelated* site armed to prove armed machinery elsewhere does not
  // leak allocations into the forward path.
  vit::VitConfig top;
  top.image_size = 16;
  top.patch_size = 8;
  top.dim = 16;
  top.layers = 1;
  top.heads = 2;
  top.mlp_ratio = 2;
  top.classes = 4;
  nn::Rng rng(7);
  nn::Tensor images({4, top.channels * top.image_size * top.image_size});
  rng.fill_uniform(images, 0.0f, 1.0f);
  vit::VisionTransformer model(top, 19);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  (void)model.forward(images, /*training=*/false);  // latch LSQ steps
  const auto servable =
      vit::make_servable(model.clone_for_serving(), VariantKind::kPackedTernary, "w2a2");

  failpoint::arm("ckpt.crc", "p0.5,seed1,err");  // armed, but not on this path

  Arena arena;
  for (int i = 0; i < 3; ++i) {  // sizing + warm-up passes
    ArenaScope scope(arena);
    (void)servable->infer(images);
    arena.reset();
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 5; ++i) {
    ArenaScope scope(arena);
    (void)servable->infer(images);
    arena.reset();
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state forwards must not touch the heap with failpoints present";
}

// ---------------------------------------------------------------------------
// Front-door chaos: serve.accept / serve.read / serve.write / router.route
// ---------------------------------------------------------------------------

namespace {

serve::ShardSetOptions serve_chaos_opts(int shards = 2) {
  serve::ShardSetOptions o;
  o.shards = shards;
  o.engine.max_batch = 4;
  o.engine.max_delay = std::chrono::microseconds{300};
  o.engine.concurrent_forwards = 1;
  o.engine.max_pending = 32;
  o.engine.default_variant = "mock";
  return o;
}

void serve_chaos_bootstrap(int /*shard*/, ModelRegistry& reg) {
  reg.publish(std::make_shared<MockServable>("mock", 0));
}

serve::RequestFrame serve_request(std::uint64_t id, float head) {
  serve::RequestFrame f;
  f.request_id = id;
  f.payload = payload(head);
  return f;
}

}  // namespace

TEST_F(ChaosTest, ServeAcceptInjectionDropsTheConnectionButTheLoopKeepsAccepting) {
  serve::ShardSet shards(serve_chaos_bootstrap, serve_chaos_opts());
  serve::Server server(shards);
  failpoint::arm("serve.accept", "once,throw");
  // The faulted accept closes the first connection the way an accept-time
  // socket error would; the TCP handshake already succeeded in the kernel,
  // so the client only notices at its first read.
  {
    serve::Client victim("127.0.0.1", server.port());
    victim.send(serve_request(1, 1.0f));
    EXPECT_THROW((void)victim.recv(), std::runtime_error);
  }
  // once => auto-disarmed: the loop is still accepting and serving.
  serve::Client survivor("127.0.0.1", server.port());
  EXPECT_EQ(survivor.request(serve_request(2, 3.0f)).status, serve::Status::kOk);
  const auto stats = failpoint::sites();
  for (const auto& s : stats) {
    if (s.name == std::string("serve.accept")) {
      EXPECT_EQ(s.fires, 1u);
    }
  }
}

TEST_F(ChaosTest, ServeReadInjectionKillsOnlyTheFaultedConnection) {
  serve::ShardSet shards(serve_chaos_bootstrap, serve_chaos_opts());
  serve::Server server(shards);
  serve::Client bystander("127.0.0.1", server.port());
  EXPECT_EQ(bystander.request(serve_request(1, 1.0f)).status, serve::Status::kOk);

  failpoint::arm("serve.read", "once,throw");
  serve::Client victim("127.0.0.1", server.port());
  victim.send(serve_request(2, 1.0f));
  EXPECT_THROW((void)victim.recv(), std::runtime_error);

  // The bystander's connection was never touched.
  EXPECT_EQ(bystander.request(serve_request(3, 2.0f)).status, serve::Status::kOk);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST_F(ChaosTest, ServeWriteInjectionDropsTheConnectionWithoutWedgingDrain) {
  serve::ShardSet shards(serve_chaos_bootstrap, serve_chaos_opts());
  serve::Server server(shards);
  failpoint::arm("serve.write", "once,throw");
  {
    serve::Client victim("127.0.0.1", server.port());
    victim.send(serve_request(1, 1.0f));
    // The response flush faults; the connection dies instead of delivering.
    EXPECT_THROW((void)victim.recv(), std::runtime_error);
  }
  serve::Client survivor("127.0.0.1", server.port());
  EXPECT_EQ(survivor.request(serve_request(2, 3.0f)).status, serve::Status::kOk);
  // Request accounting survived the dropped response: a drain completes
  // instead of waiting forever on the faulted request.
  server.drain();
  server.wait_drained();
}

TEST_F(ChaosTest, RouterRouteInjectionSurfacesAsTypedInjectedFaultOverTheWire) {
  serve::ShardSet shards(serve_chaos_bootstrap, serve_chaos_opts());
  serve::Server server(shards);
  serve::Client client("127.0.0.1", server.port());
  failpoint::arm("router.route", "n2,throw");
  for (int i = 0; i < 2; ++i) {
    const serve::ResponseFrame resp = client.request(serve_request(static_cast<std::uint64_t>(i), 1.0f));
    EXPECT_EQ(resp.status, serve::Status::kInjectedFault);
    EXPECT_EQ(resp.request_id, static_cast<std::uint64_t>(i));
  }
  // n2 exhausted: the SAME connection keeps serving — a route fault is a
  // typed per-request failure, not a connection failure.
  EXPECT_EQ(client.request(serve_request(9, 4.0f)).status, serve::Status::kOk);
  EXPECT_EQ(shards.admitted(), 1u);
}

TEST_F(ChaosTest, MidTrafficPublishAllWithFailingCanaryKeepsIncumbentAndLosesNoRequest) {
  // The coordinated-publish acceptance claim under live load: while mixed
  // traffic flows, a publish_all whose shard-1 candidate diverges on the
  // canary must leave BOTH shards on the incumbent generation, and every
  // issued request must still resolve: ok + typed + rejected == issued.
  serve::ShardSet shards(serve_chaos_bootstrap, serve_chaos_opts());
  serve::Server server(shards);

  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  std::atomic<int> ok{0}, retry{0}, typed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        serve::RequestFrame f = serve_request(static_cast<std::uint64_t>(c * kPerClient + i),
                                              static_cast<float>(i % 8));
        f.options.priority = static_cast<Priority>(i % kNumPriorities);
        const serve::ResponseFrame resp = client.request(f);
        if (resp.status == serve::Status::kOk) {
          ok.fetch_add(1);
          EXPECT_EQ(resp.label, i % 8);  // always the bias-0 incumbent
        } else if (resp.status == serve::Status::kRetryAfter) {
          retry.fetch_add(1);
        } else {
          typed.fetch_add(1);
        }
      }
    });
  }

  CanaryOptions canary;
  canary.golden_input = golden_batch(3);
  canary.require_label_match = true;
  const serve::PublishAllResult pub = shards.publish_all(
      [](int shard) { return std::make_shared<MockServable>("mock", shard == 1 ? 5 : 0); },
      &canary);
  for (auto& t : clients) t.join();

  EXPECT_FALSE(pub.published);
  EXPECT_EQ(pub.failed_shard, 1);
  for (int s = 0; s < 2; ++s)
    EXPECT_EQ(shards.registry(s)->generation("mock"), 1u)
        << "shard " << s << " must stay on the incumbent generation";
  EXPECT_EQ(shards.registry(1)->rollbacks(), 1u);
  EXPECT_EQ(ok.load() + retry.load() + typed.load(), kClients * kPerClient)
      << "no request lost across the rejected coordinated publish";
  EXPECT_GT(ok.load(), 0);

  serve::Client finisher("127.0.0.1", server.port());
  finisher.drain_server();
  server.wait_drained();
  EXPECT_EQ(server.stats().responses_out, server.stats().frames_in);
}
