// test_frontdoor.cpp — the network front door: wire protocol, sharded
// router, admission control, coordinated publishes, and the socket server
// end-to-end over real loopback connections.
//
// The malformed-frame battery drives corrupt bytes at a live server (bad
// magic, future version, oversize length, truncated-by-half-close, unknown
// variant) and asserts each maps to its typed wire status without killing
// the connection loop — a fresh healthy connection is served after every
// corruption, and a seeded bit-flip fuzzer checks no byte pattern can crash
// or wedge the server.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "nn/tensor.h"
#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/failpoint.h"
#include "runtime/registry.h"
#include "runtime/servable.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/shard_set.h"

using namespace ascend;
using namespace ascend::serve;
using runtime::ModelRegistry;
using runtime::Priority;
using runtime::RequestOptions;
using runtime::Servable;

namespace {

/// Deterministic toy servable (the test_servable idiom): label =
/// (payload[0] + bias) % kClasses, logits one-hot, optional delay so
/// admission tests can hold a queue open.
class MockServable final : public Servable {
 public:
  MockServable(std::string id, int bias = 0, std::chrono::milliseconds delay = {})
      : id_(std::move(id)), bias_(bias), delay_(delay) {}

  nn::Tensor infer(const nn::Tensor& batch) const override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    nn::Tensor logits({batch.dim(0), kClasses});
    for (int r = 0; r < batch.dim(0); ++r) {
      const int label = (static_cast<int>(batch.at(r, 0)) + bias_) % kClasses;
      logits.at(r, label) = 1.0f;
    }
    return logits;
  }
  int input_dim() const override { return kInputDim; }
  int output_dim() const override { return kClasses; }
  const std::string& variant_id() const override { return id_; }

  static constexpr int kInputDim = 4;
  static constexpr int kClasses = 8;

 private:
  std::string id_;
  int bias_;
  std::chrono::milliseconds delay_;
};

std::vector<float> payload(float head) {
  std::vector<float> p(MockServable::kInputDim, 0.0f);
  p[0] = head;
  return p;
}

nn::Tensor golden_batch(int rows) {
  nn::Tensor t({rows, MockServable::kInputDim});
  for (int r = 0; r < rows; ++r) t.at(r, 0) = static_cast<float>(r + 1);
  return t;
}

ShardSetOptions quick_shard_opts(int shards = 2, int max_pending = 64) {
  ShardSetOptions o;
  o.shards = shards;
  o.engine.max_batch = 4;
  o.engine.max_delay = std::chrono::microseconds{300};
  o.engine.concurrent_forwards = 1;
  o.engine.max_pending = max_pending;
  o.engine.default_variant = "a";
  return o;
}

/// Bootstrap every shard with variants "a" and "b" (bias 0 / 1).
void bootstrap_ab(int /*shard*/, ModelRegistry& reg) {
  reg.publish(std::make_shared<MockServable>("a", 0));
  reg.publish(std::make_shared<MockServable>("b", 1));
}

RequestFrame make_request(std::uint64_t id, float head, std::string variant = {}) {
  RequestFrame f;
  f.request_id = id;
  f.options.variant = std::move(variant);
  f.payload = payload(head);
  return f;
}

/// Little-endian field poke for hand-crafted corrupt frames.
template <typename T>
void poke(std::vector<std::uint8_t>& bytes, std::size_t off, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    bytes[off + i] = static_cast<std::uint8_t>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
}

class FrontdoorTest : public ::testing::Test {
 protected:
  void TearDown() override { runtime::failpoint::disarm_all(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(Protocol, RequestRoundTripPreservesEveryField) {
  RequestFrame in;
  in.request_id = 0xDEADBEEFCAFEull;
  in.flags = 0;
  in.options.variant = "sc-lut";
  in.options.priority = Priority::kInteractive;
  in.options.deadline = std::chrono::microseconds{123456};
  in.options.retry.max_attempts = 3;
  in.options.retry.fallback_variant = "fp32";
  in.payload = {1.5f, -2.25f, 0.0f, 1e-9f};

  std::vector<std::uint8_t> bytes;
  append_request(bytes, in);
  EXPECT_EQ(bytes.size(), request_wire_size(in));

  RequestFrame out;
  std::size_t consumed = 0;
  Status error{};
  std::uint64_t error_id = 0;
  ASSERT_EQ(decode_request(bytes.data(), bytes.size(), consumed, out, error, error_id),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.options.variant, "sc-lut");
  EXPECT_EQ(out.options.priority, Priority::kInteractive);
  EXPECT_EQ(out.options.deadline, in.options.deadline);
  EXPECT_EQ(out.options.retry.max_attempts, 3);
  EXPECT_EQ(out.options.retry.fallback_variant, "fp32");
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Protocol, ResponseRoundTripPreservesEveryField) {
  ResponseFrame in;
  in.request_id = 42;
  in.status = Status::kRetryAfter;
  in.label = 7;
  in.retry_after_ms = 25;
  in.attempts = 2;
  in.degraded = true;
  in.shard = 3;
  in.logits = {0.5f, -0.5f};

  std::vector<std::uint8_t> bytes;
  append_response(bytes, in);
  EXPECT_EQ(bytes.size(), response_wire_size(in));

  ResponseFrame out;
  std::size_t consumed = 0;
  Status error{};
  ASSERT_EQ(decode_response(bytes.data(), bytes.size(), consumed, out, error),
            DecodeResult::kFrame);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.status, Status::kRetryAfter);
  EXPECT_EQ(out.label, 7);
  EXPECT_EQ(out.retry_after_ms, 25u);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.shard, 3);
  EXPECT_EQ(out.logits, in.logits);
}

TEST(Protocol, IncrementalDecodeReportsNeedMoreUntilWholeFrame) {
  RequestFrame in = make_request(9, 3.0f, "a");
  std::vector<std::uint8_t> bytes;
  append_request(bytes, in);
  RequestFrame out;
  Status error{};
  std::uint64_t error_id = 0;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::size_t consumed = 0;
    EXPECT_EQ(decode_request(bytes.data(), n, consumed, out, error, error_id),
              DecodeResult::kNeedMore)
        << "prefix of " << n << " bytes";
    EXPECT_EQ(consumed, 0u);
  }
  std::size_t consumed = 0;
  EXPECT_EQ(decode_request(bytes.data(), bytes.size(), consumed, out, error, error_id),
            DecodeResult::kFrame);
}

TEST(Protocol, MalformedHeadersYieldTypedErrorsAndSalvageTheRequestId) {
  RequestFrame in = make_request(0x1122334455667788ull, 1.0f, "a");
  std::vector<std::uint8_t> good;
  append_request(good, in);

  RequestFrame out;
  std::size_t consumed = 0;
  Status error{};
  std::uint64_t error_id = 0;

  std::vector<std::uint8_t> bad = good;
  poke<std::uint32_t>(bad, 0, 0x12345678u);  // magic
  EXPECT_EQ(decode_request(bad.data(), bad.size(), consumed, out, error, error_id),
            DecodeResult::kError);
  EXPECT_EQ(error, Status::kBadMagic);

  bad = good;
  poke<std::uint16_t>(bad, 4, kVersion + 1);  // future version
  EXPECT_EQ(decode_request(bad.data(), bad.size(), consumed, out, error, error_id),
            DecodeResult::kError);
  EXPECT_EQ(error, Status::kBadVersion);
  EXPECT_EQ(error_id, in.request_id) << "id salvaged for the failure response";

  bad = good;
  poke<std::uint32_t>(bad, 24, kMaxPayloadFloats + 1);  // oversize payload
  EXPECT_EQ(decode_request(bad.data(), bad.size(), consumed, out, error, error_id),
            DecodeResult::kError);
  EXPECT_EQ(error, Status::kBadFrame);
  EXPECT_EQ(error_id, in.request_id);

  bad = good;
  bad[16] = 250;  // priority out of range
  EXPECT_EQ(decode_request(bad.data(), bad.size(), consumed, out, error, error_id),
            DecodeResult::kError);
  EXPECT_EQ(error, Status::kBadFrame);
}

TEST(Protocol, EveryStatusHasAName) {
  for (int s = 0; s <= static_cast<int>(Status::kInternal); ++s)
    EXPECT_STRNE(status_name(static_cast<Status>(s)), "?");
}

// ---------------------------------------------------------------------------
// Batcher per-variant queue depths (metrics satellite)
// ---------------------------------------------------------------------------

TEST(PendingCounts, ReportsPerVariantDepthsInOneSnapshot) {
  runtime::Batcher batcher(8, std::chrono::microseconds{50'000});
  RequestOptions a, b;
  a.variant = "a";
  b.variant = "b";
  auto f1 = batcher.enqueue(payload(1), a);
  auto f2 = batcher.enqueue(payload(2), a);
  auto f3 = batcher.enqueue(payload(3), b);
  const runtime::PendingCounts counts = batcher.pending_counts();
  EXPECT_EQ(counts.total, 3u);
  EXPECT_EQ(counts.variant("a"), 2u);
  EXPECT_EQ(counts.variant("b"), 1u);
  EXPECT_EQ(counts.variant("absent"), 0u);
  ASSERT_EQ(counts.by_variant.size(), 2u);
  EXPECT_EQ(counts.by_variant[0].first, "a");  // id-sorted
  batcher.close_now();
}

TEST(PendingCounts, EngineExportsPerVariantQueueDepthGauges) {
  auto registry = std::make_shared<ModelRegistry>();
  bootstrap_ab(0, *registry);
  runtime::EngineOptions opts;
  opts.default_variant = "a";
  opts.max_pending = 16;
  runtime::InferenceEngine engine(registry, opts);
  const auto snapshot = engine.metrics()->snapshot();
  int variant_gauges = 0;
  for (const auto& s : snapshot.series)
    if (s.name == "ascend_queue_depth" && !s.labels.empty() && s.labels[0].first == "variant")
      ++variant_gauges;
  EXPECT_EQ(variant_gauges, 2) << "one ascend_queue_depth{variant=...} gauge per variant";
}

// ---------------------------------------------------------------------------
// ShardSet: routing, admission, coordinated publishes
// ---------------------------------------------------------------------------

TEST_F(FrontdoorTest, RouterPicksLeastLoadedShardAndFiltersByVariant) {
  // Shard 1 holds variant "b"; shard 0 does not — "b" must route to shard 1
  // no matter the load.
  ShardSet shards(
      [](int shard, ModelRegistry& reg) {
        reg.publish(std::make_shared<MockServable>("a", 0));
        if (shard == 1) reg.publish(std::make_shared<MockServable>("b", 1));
      },
      quick_shard_opts());
  RequestOptions b;
  b.variant = "b";
  ShardSet::Ticket t = shards.submit(payload(2), b);
  EXPECT_EQ(t.shard, 1);
  EXPECT_EQ(t.future.get().label, 3);  // (2 + bias 1) % 8

  EXPECT_THROW(shards.submit(payload(1), RequestOptions{.variant = "nope"}),
               runtime::UnknownVariantError);
  EXPECT_EQ(shards.admitted(), 1u);
}

TEST_F(FrontdoorTest, AdmissionControlShedsWithRetryAfterInsteadOfBlocking) {
  // One slow shard, tiny queue, low watermark: the flood must convert into
  // typed RetryAfterError rejects, never a blocked submitter.
  ShardSetOptions opts = quick_shard_opts(/*shards=*/1, /*max_pending=*/4);
  opts.admit_watermark = 0.5;  // reject at queue depth >= 2
  opts.retry_after = std::chrono::milliseconds{40};
  ShardSet shards(
      [](int, ModelRegistry& reg) {
        reg.publish(std::make_shared<MockServable>("a", 0, std::chrono::milliseconds{50}));
      },
      opts);
  std::vector<std::future<runtime::Prediction>> ok;
  int rejected = 0;
  std::chrono::milliseconds hint{0};
  for (int i = 0; i < 32; ++i) {
    try {
      ok.push_back(shards.submit(payload(1), {}).future);
    } catch (const RetryAfterError& e) {
      ++rejected;
      hint = e.retry_after;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(hint.count(), 40);
  EXPECT_EQ(shards.rejected(), static_cast<std::uint64_t>(rejected));
  for (auto& f : ok) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(shards.admitted() + shards.rejected(), 32u);
}

TEST_F(FrontdoorTest, DrainStopsAdmissionAndReadmitRestoresIt) {
  ShardSet shards(bootstrap_ab, quick_shard_opts(/*shards=*/2));
  shards.drain(0);
  EXPECT_FALSE(shards.admitting(0));
  // With shard 0 drained every request lands on shard 1.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(shards.submit(payload(1), {}).shard, 1);
  shards.readmit(0);
  EXPECT_TRUE(shards.admitting(0));
  // Draining every holder makes the variant transiently unavailable: typed
  // retry-after, not a block and not unknown-variant.
  shards.drain(0);
  shards.drain(1);
  EXPECT_THROW(shards.submit(payload(1), {}), RetryAfterError);
  shards.readmit(0);
  shards.readmit(1);
  EXPECT_NO_THROW(shards.submit(payload(1), {}).future.get());
}

TEST_F(FrontdoorTest, PublishAllCommitsEveryShardWhenAllCanariesPass) {
  ShardSet shards(bootstrap_ab, quick_shard_opts());
  runtime::CanaryOptions canary;
  canary.golden_input = golden_batch(3);
  const PublishAllResult r = shards.publish_all(
      [](int) { return std::make_shared<MockServable>("a", 0); }, &canary);
  EXPECT_TRUE(r.published);
  EXPECT_EQ(r.failed_shard, -1);
  ASSERT_EQ(r.generations.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(r.generations[static_cast<std::size_t>(s)], 2u);
    EXPECT_EQ(shards.registry(s)->generation("a"), 2u);
  }
}

TEST_F(FrontdoorTest, PublishAllWithOneFailingCanaryLeavesAllShardsOnIncumbent) {
  runtime::CanaryOptions canary;
  canary.golden_input = golden_batch(3);
  canary.require_label_match = true;
  // Shard 1's candidate diverges (bias 5 flips every argmax); shard 0's is
  // clean. All-or-nothing: neither shard may swap, and both publishes report
  // the rejection the same way.
  for (const auto publish : {&ShardSet::publish_all, &ShardSet::rolling_publish}) {
    SCOPED_TRACE(publish == &ShardSet::publish_all ? "publish_all" : "rolling_publish");
    ShardSet shards(bootstrap_ab, quick_shard_opts());
    const PublishAllResult r = (shards.*publish)(
        [](int shard) { return std::make_shared<MockServable>("a", shard == 1 ? 5 : 0); },
        &canary);
    EXPECT_FALSE(r.published);
    EXPECT_EQ(r.failed_shard, 1);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.generations, (std::vector<std::uint64_t>{1, 1}));
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(shards.registry(s)->generation("a"), 1u) << "shard " << s << " must keep incumbent";
      EXPECT_TRUE(shards.admitting(s));
    }
    EXPECT_EQ(shards.registry(1)->rollbacks(), 1u);
    EXPECT_EQ(shards.registry(0)->rollbacks(), 0u);
    // The incumbent keeps serving on every shard.
    EXPECT_EQ(shards.submit(payload(2), {}).future.get().label, 2);
  }
}

TEST_F(FrontdoorTest, RollingPublishSwapsEveryShardAndRestoresAdmission) {
  ShardSet shards(bootstrap_ab, quick_shard_opts());
  runtime::CanaryOptions canary;
  canary.golden_input = golden_batch(2);
  const PublishAllResult r = shards.rolling_publish(
      [](int) { return std::make_shared<MockServable>("a", 0); }, &canary);
  EXPECT_TRUE(r.published);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(shards.registry(s)->generation("a"), 2u);
    EXPECT_TRUE(shards.admitting(s));
  }
}

// ---------------------------------------------------------------------------
// Server end-to-end over loopback
// ---------------------------------------------------------------------------

TEST_F(FrontdoorTest, ServesRequestsOverLoopbackWithCorrectLabelsAndLogits) {
  ShardSet shards(bootstrap_ab, quick_shard_opts());
  Server server(shards);
  ASSERT_GT(server.port(), 0);
  Client client("127.0.0.1", server.port());
  for (int i = 0; i < 8; ++i) {
    const ResponseFrame resp = client.request(make_request(100 + i, static_cast<float>(i)));
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.request_id, 100u + static_cast<unsigned>(i));
    EXPECT_EQ(resp.label, i % MockServable::kClasses);
    ASSERT_EQ(resp.logits.size(), static_cast<std::size_t>(MockServable::kClasses));
    EXPECT_FLOAT_EQ(resp.logits[static_cast<std::size_t>(resp.label)], 1.0f);
  }
  // Variant routing over the wire.
  const ResponseFrame b = client.request(make_request(200, 2.0f, "b"));
  EXPECT_EQ(b.status, Status::kOk);
  EXPECT_EQ(b.label, 3);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, 9u);
  EXPECT_EQ(stats.responses_out, 9u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(FrontdoorTest, MalformedFrameBatteryMapsToTypedStatusesWithoutKillingTheLoop) {
  ShardSet shards(bootstrap_ab, quick_shard_opts());
  Server server(shards);
  std::vector<std::uint8_t> good;
  append_request(good, make_request(7, 1.0f, "a"));

  const auto healthy = [&] {
    Client probe("127.0.0.1", server.port());
    const ResponseFrame resp = probe.request(make_request(1, 3.0f));
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.label, 3);
  };

  {  // bad magic: typed answer, then the desynced connection closes
    Client c("127.0.0.1", server.port());
    std::vector<std::uint8_t> bad = good;
    poke<std::uint32_t>(bad, 0, 0xBADBADu);
    c.send_raw(bad);
    EXPECT_EQ(c.recv().status, Status::kBadMagic);
    EXPECT_THROW(c.recv(), std::runtime_error);  // server hung up
  }
  healthy();

  {  // future protocol version
    Client c("127.0.0.1", server.port());
    std::vector<std::uint8_t> bad = good;
    poke<std::uint16_t>(bad, 4, kVersion + 1);
    c.send_raw(bad);
    const ResponseFrame resp = c.recv();
    EXPECT_EQ(resp.status, Status::kBadVersion);
    EXPECT_EQ(resp.request_id, 7u) << "salvaged id echoes back";
  }
  healthy();

  {  // oversize length: rejected from the header, nothing allocated
    Client c("127.0.0.1", server.port());
    std::vector<std::uint8_t> bad = good;
    poke<std::uint32_t>(bad, 24, kMaxPayloadFloats + 1);
    c.send_raw(bad);
    EXPECT_EQ(c.recv().status, Status::kBadFrame);
  }
  healthy();

  {  // truncated payload delivered by half-close
    Client c("127.0.0.1", server.port());
    c.send_raw(good.data(), good.size() - 4);
    c.shutdown_write();
    const ResponseFrame resp = c.recv();
    EXPECT_EQ(resp.status, Status::kTruncated);
    EXPECT_EQ(resp.request_id, 7u);
  }
  healthy();

  {  // unknown variant: typed answer and the connection SURVIVES
    Client c("127.0.0.1", server.port());
    EXPECT_EQ(c.request(make_request(8, 1.0f, "nope")).status, Status::kUnknownVariant);
    EXPECT_EQ(c.request(make_request(9, 1.0f, "a")).status, Status::kOk);
  }
  healthy();

  EXPECT_GE(server.stats().protocol_errors, 4u);
}

TEST_F(FrontdoorTest, SeededBitFlipFuzzNeverCrashesOrWedgesTheServer) {
  ShardSet shards(bootstrap_ab, quick_shard_opts());
  Server server(shards);
  std::vector<std::uint8_t> good;
  append_request(good, make_request(5, 2.0f, "a"));

  std::mt19937_64 rng(0xF00DF00Dull);  // seeded: failures replay exactly
  std::uniform_int_distribution<std::size_t> pick_byte(0, good.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  std::uniform_int_distribution<int> pick_flips(1, 4);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::uint8_t> fuzzed = good;
    for (int f = 0; f < pick_flips(rng); ++f) {
      std::size_t off = pick_byte(rng);
      // Keep the flags word intact: flipping the drain bit is a *valid*
      // control frame and would legitimately drain the server mid-fuzz.
      while (off == 6 || off == 7) off = pick_byte(rng);
      fuzzed[off] ^= static_cast<std::uint8_t>(1 << pick_bit(rng));
    }
    Client c("127.0.0.1", server.port());
    c.send_raw(fuzzed);
    // Half-close so a corrupted length field cannot park the frame forever:
    // the server must answer something typed (possibly kOk when only
    // payload bits flipped) and close, never crash or hang.
    c.shutdown_write();
    try {
      const ResponseFrame resp = c.recv();
      EXPECT_LE(static_cast<int>(resp.status), static_cast<int>(Status::kInternal));
    } catch (const std::runtime_error&) {
      // Server closed without a decodable answer — acceptable for garbage.
    }
  }
  // The loop survived: a healthy connection still round-trips.
  Client probe("127.0.0.1", server.port());
  EXPECT_EQ(probe.request(make_request(1, 3.0f)).status, Status::kOk);
  EXPECT_FALSE(server.draining());
}

TEST_F(FrontdoorTest, OverloadOverTheWireShedsWithRetryAfterHint) {
  ShardSetOptions opts = quick_shard_opts(/*shards=*/1, /*max_pending=*/4);
  opts.admit_watermark = 0.5;
  opts.retry_after = std::chrono::milliseconds{30};
  ShardSet shards(
      [](int, ModelRegistry& reg) {
        reg.publish(std::make_shared<MockServable>("a", 0, std::chrono::milliseconds{40}));
      },
      opts);
  Server server(shards);
  Client client("127.0.0.1", server.port());
  // Pipeline a burst far past the queue bound, then reap.
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) client.send(make_request(static_cast<std::uint64_t>(i), 1.0f));
  int ok = 0, retry = 0;
  for (int i = 0; i < kBurst; ++i) {
    const ResponseFrame resp = client.recv();
    if (resp.status == Status::kOk) ++ok;
    if (resp.status == Status::kRetryAfter) {
      ++retry;
      EXPECT_EQ(resp.retry_after_ms, 30u);
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(retry, 0);
  EXPECT_EQ(ok + retry, kBurst);
}

TEST_F(FrontdoorTest, DrainControlFrameStopsNewWorkAndWaitDrainedFlushesEverything) {
  ShardSet shards(bootstrap_ab, quick_shard_opts());
  Server server(shards);
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.request(make_request(1, 1.0f)).status, Status::kOk);

  const ResponseFrame ack = client.drain_server(99);
  EXPECT_EQ(ack.status, Status::kOk);
  EXPECT_EQ(ack.request_id, 99u);
  EXPECT_TRUE(server.draining());

  // Requests after the drain are refused with the typed shutdown status.
  EXPECT_EQ(client.request(make_request(2, 1.0f)).status, Status::kShuttingDown);
  // New connections are no longer accepted once draining.
  server.wait_drained();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(FrontdoorTest, MixedTrafficWithMidStreamRollingPublishLosesNoRequest) {
  // The acceptance invariant: across C connections of mixed-priority traffic
  // with a rolling canary-validated publish racing mid-stream,
  // ok + typed + rejected == issued — every request is answered exactly once.
  ShardSetOptions opts = quick_shard_opts(/*shards=*/2, /*max_pending=*/32);
  ShardSet shards(bootstrap_ab, opts);
  Server server(shards);

  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::atomic<int> ok{0}, retry{0}, typed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        RequestFrame f = make_request(static_cast<std::uint64_t>(c * kPerClient + i),
                                      static_cast<float>(i % 8), i % 2 ? "a" : "b");
        f.options.priority = static_cast<Priority>(i % runtime::kNumPriorities);
        const ResponseFrame resp = client.request(f);
        if (resp.status == Status::kOk) {
          ok.fetch_add(1);
          EXPECT_EQ(resp.label, (i % 8 + (i % 2 ? 0 : 1)) % MockServable::kClasses);
        } else if (resp.status == Status::kRetryAfter) {
          retry.fetch_add(1);
        } else {
          typed.fetch_add(1);
        }
      }
    });
  }
  // Rolling publish racing the traffic: canary-validated, drain -> swap ->
  // readmit per shard while the other keeps serving.
  runtime::CanaryOptions canary;
  canary.golden_input = golden_batch(2);
  const PublishAllResult pub = shards.rolling_publish(
      [](int) { return std::make_shared<MockServable>("a", 0); }, &canary);
  for (auto& t : clients) t.join();

  EXPECT_TRUE(pub.published);
  EXPECT_EQ(ok.load() + retry.load() + typed.load(), kClients * kPerClient)
      << "every issued request answered exactly once";
  EXPECT_GT(ok.load(), 0);
  for (int s = 0; s < 2; ++s) EXPECT_EQ(shards.registry(s)->generation("a"), 2u);

  Client finisher("127.0.0.1", server.port());
  finisher.drain_server();
  server.wait_drained();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses_out, stats.frames_in);
}
