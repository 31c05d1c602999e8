// wire_tiny — open-loop Poisson arrivals over loopback TCP into
// serve::Server over a 2-shard ShardSet serving a tiny fp32 ViT. The model
// is small enough that protocol decode/encode, the epoll IO thread, routing
// and admission, and the completion pump do most of the work.

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>

#include "profile.h"
#include "runtime/registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "serving.h"
#include "vit/dataset.h"

namespace perfbench {

namespace {

using namespace ascend;

constexpr int kShards = 2;
constexpr int kConnections = 4;  ///< pipelined client connections (<= host CPUs)
constexpr int kMaxBatch = 16;
constexpr int kPumpThreads = 1;
constexpr int kInputs = 64;
constexpr int kClasses = 10;
/// Lowest trace.phase_sum_ratio accepted on the wire (see run_traced).
constexpr double kWirePhaseFloor = 0.4;

vit::VitConfig topology() {
  vit::VitConfig c;
  c.image_size = 16;
  c.patch_size = 8;
  c.dim = 32;
  c.layers = 2;
  c.heads = 2;
  c.classes = kClasses;
  return c;
}

struct World {
  std::string ckpt;
  std::unique_ptr<serve::ShardSet> shards;
  std::unique_ptr<serve::Server> server;
  double cold_start_ms = 0;
  Clock::time_point ready{};

  ~World() {
    server.reset();
    shards.reset();
    if (!ckpt.empty()) ::unlink(ckpt.c_str());
  }
};

std::unique_ptr<World> set_up(const Args& args, bool traced) {
  std::fprintf(stderr,
               "  wire_tiny: %d shards x 1 forward, %d completion pump, 1 IO thread, %d "
               "connections, generator 1 thread\n",
               kShards, kPumpThreads, kConnections);
  auto w = std::make_unique<World>();
  w->ckpt = args.work_dir + "/wire_tiny." + std::to_string(::getpid()) + ".ckpt";
  vit::VisionTransformer(topology(), args.seed).save(w->ckpt);
  serve::ShardSetOptions so;
  so.shards = kShards;
  so.engine.max_batch = kMaxBatch;
  so.engine.max_delay = std::chrono::microseconds(500);
  so.engine.concurrent_forwards = 1;
  so.engine.max_pending = 8192;
  so.engine.default_variant = "fp32";
  so.engine.trace.enabled = traced;
  so.engine.trace.ring_size = 1024;
  std::vector<double> cold(kShards);
  w->shards = std::make_unique<serve::ShardSet>(
      [&](int shard, runtime::ModelRegistry& reg) {
        const Clock::time_point t0 = Clock::now();
        reg.register_from_file("fp32", w->ckpt, runtime::VariantKind::kFp32);
        cold[static_cast<std::size_t>(shard)] = ms_between(t0, Clock::now());
      },
      so);
  w->cold_start_ms = median(cold);
  serve::ServerOptions svo;
  svo.completion_threads = kPumpThreads;
  w->server = std::make_unique<serve::Server>(*w->shards, svo);
  serve::Client first("127.0.0.1", w->server->port());
  serve::RequestFrame f;
  const vit::Dataset one = vit::make_synthetic_vision(1, kClasses, args.seed + 2, 16);
  f.payload.assign(one.images.data(), one.images.data() + one.images.size());
  if (first.request(f).status != serve::Status::kOk)
    throw std::runtime_error("wire_tiny: first request failed");
  w->ready = Clock::now();
  return w;
}

struct Oracle {
  std::vector<std::vector<float>> images;
  std::vector<int> labels;
};

Oracle make_oracle(World& w, std::uint64_t seed) {
  Oracle o;
  const vit::Dataset data = vit::make_synthetic_vision(kInputs, kClasses, seed ^ 0x5eedULL, 16);
  const int pixels = data.images.dim(1);
  const auto servable = w.shards->registry(0)->get("fp32");
  for (int i = 0; i < kInputs; ++i) {
    const float* row = data.images.data() + static_cast<std::size_t>(i) * pixels;
    o.images.emplace_back(row, row + pixels);
    const nn::Tensor logits = servable->infer(nn::Tensor::borrow({1, pixels}, row));
    int best = 0;
    for (int c = 1; c < logits.dim(1); ++c)
      if (logits.at(0, c) > logits.at(0, best)) best = c;
    o.labels.push_back(best);
  }
  return o;
}

class WireTarget final : public Target {
 public:
  WireTarget(std::uint16_t port, const Oracle& oracle) : oracle_(oracle), out_(kConnections) {
    for (int c = 0; c < kConnections; ++c) clients_.emplace_back("127.0.0.1", port);
  }

  std::optional<Outcome> send(std::uint64_t id, int input) override {
    frame_.request_id = id;
    frame_.payload = oracle_.images[static_cast<std::size_t>(input)];
    serve::append_request(out_[id % kConnections], frame_);
    input_of_[id] = input;
    return std::nullopt;
  }

  /// One write per connection for every frame due since the last flush.
  void flush() override {
    for (int c = 0; c < kConnections; ++c) {
      std::vector<std::uint8_t>& buf = out_[static_cast<std::size_t>(c)];
      if (buf.empty()) continue;
      clients_[static_cast<std::size_t>(c)].send_raw(buf);
      buf.clear();
    }
  }

  void poll(std::vector<Reply>& out, Clock::time_point until) override {
    pollfd fds[kConnections];
    for (;;) {
      const Clock::time_point now = Clock::now();
      const auto ns = out.empty() && now < until
                          ? std::chrono::duration_cast<std::chrono::nanoseconds>(until - now).count()
                          : 0;
      for (int c = 0; c < kConnections; ++c) fds[c] = {clients_[c].fd(), POLLIN, 0};
      const timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
      ::ppoll(fds, kConnections, &ts, nullptr);
      for (int c = 0; c < kConnections; ++c)
        if (fds[c].revents != 0)
          while (auto resp = clients_[static_cast<std::size_t>(c)].poll_response())
            out.push_back(resolve(*resp));
      if (!out.empty() || Clock::now() >= until) return;
    }
  }

  int inputs() const override { return kInputs; }

 private:
  Reply resolve(const serve::ResponseFrame& r) {
    Reply rep{r.request_id, Outcome::kFailed, Clock::now()};
    const auto it = input_of_.find(r.request_id);
    if (it == input_of_.end()) return rep;
    if (r.status == serve::Status::kOk)
      rep.outcome = r.label == oracle_.labels[static_cast<std::size_t>(it->second)]
                        ? Outcome::kOk
                        : Outcome::kWrong;
    else if (r.status == serve::Status::kRetryAfter)
      rep.outcome = Outcome::kRefused;
    input_of_.erase(it);
    return rep;
  }

  const Oracle& oracle_;
  std::vector<serve::Client> clients_;
  serve::RequestFrame frame_;
  std::vector<std::vector<std::uint8_t>> out_;  ///< per connection, not yet written
  std::unordered_map<std::uint64_t, int> input_of_;
};

/// Graceful drain; true when every decoded frame was answered.
bool drain_clean(World& w) {
  {
    serve::Client finisher("127.0.0.1", w.server->port());
    finisher.drain_server();
  }
  w.server->wait_drained();
  const serve::ServerStats s = w.server->stats();
  // The drain control frame itself is a decoded frame answered in-line.
  std::fprintf(stderr, "  drain: frames_in %llu responses_out %llu\n",
               static_cast<unsigned long long>(s.frames_in),
               static_cast<unsigned long long>(s.responses_out));
  return s.frames_in == s.responses_out;
}

constexpr BulkShape kBulk{.ops = 2500, .window = 256};
constexpr BulkShape kProbe{.ops = 20000, .window = 256};

int run_end_to_end(const Args& args) {
  std::unique_ptr<World> w = set_up(args, /*traced=*/false);
  const double setup = setup_seconds(args, w->ready);
  if (args.setup_probe) {
    std::printf("setup_s %.9f\n", setup);
    return 0;
  }
  const Oracle oracle = make_oracle(*w, args.seed);
  Report rep;
  rep.add("setup_s", median_setup(args, setup), "s");
  Ledger total;
  {
    WireTarget target(w->server->port(), oracle);
    LoadGen gen(target, args.seed);
    total = measure_serving(gen, args, kBulk, rep);
  }
  const bool drained = drain_clean(*w);
  rep.emit(drained && total.wrong == 0 && total.lost == 0 && total.balanced(), total.sent,
           total.not_ok());
  return 0;
}

/// Per-frame cost (µs) of `fn` over `frames` frames, median of 5 batches.
template <typename Fn>
double per_frame_us(SpanLog& log, const char* name, int frames, Fn&& fn) {
  std::vector<double> us;
  for (int b = 0; b < 5; ++b) {
    Scoped span(&log, name);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < frames; ++i) fn(i);
    us.push_back(us_between(t0, Clock::now()) / frames);
  }
  return median(us);
}

/// Protocol decode/encode per frame on the workload's own frame shapes.
void report_protocol(const Oracle& oracle, SpanLog& log, Report& rep) {
  serve::RequestFrame req;
  req.request_id = 42;
  req.payload = oracle.images[0];
  std::vector<std::uint8_t> wire;
  serve::append_request(wire, req);
  serve::RequestFrame decoded;
  std::size_t consumed = 0;
  serve::Status err{};
  std::uint64_t err_id = 0;
  rep.add("serve.protocol.decode_us", per_frame_us(log, "serve.protocol.decode", 2000, [&](int) {
            serve::decode_request(wire.data(), wire.size(), consumed, decoded, err, err_id);
            do_not_optimize(static_cast<double>(consumed));
          }),
          "us");
  serve::ResponseFrame resp;
  resp.status = serve::Status::kOk;
  resp.label = 3;
  resp.logits.assign(kClasses, 0.25f);
  std::vector<std::uint8_t> out;
  rep.add("serve.protocol.encode_us", per_frame_us(log, "serve.protocol.encode", 2000, [&](int i) {
            resp.request_id = static_cast<std::uint64_t>(i);
            out.clear();
            serve::append_response(out, resp);
            do_not_optimize(static_cast<double>(out.size()));
          }),
          "us");
}

/// ShardSet::submit called directly (routing + admission + enqueue), one
/// request in flight; answers are checked like the wire's.
double shard_submit_us(World& w, const Oracle& oracle, int n, SpanLog& log, Ledger& ledger) {
  std::vector<double> us;
  runtime::RequestOptions ro;
  for (int i = 0; i < n; ++i) {
    const std::size_t input = static_cast<std::size_t>(i) % oracle.images.size();
    ++ledger.sent;
    serve::ShardSet::Ticket t;
    {
      Scoped span(&log, "serve.shard_set.submit");
      const Clock::time_point t0 = Clock::now();
      try {
        t = w.shards->submit(oracle.images[input], ro);
      } catch (const serve::RetryAfterError&) {
        ++ledger.refused;
        continue;
      }
      us.push_back(us_between(t0, Clock::now()));
    }
    try {
      ledger.count(t.future.get().label == oracle.labels[input] ? Outcome::kOk : Outcome::kWrong);
    } catch (...) {
      ++ledger.failed;
    }
  }
  return median(us);
}

/// Round trips of a request the front door answers itself (unknown variant:
/// IO thread, decode, route, encode, socket — no engine), one every 2 ms on
/// its own connection while the traced step runs, so it sees the same load.
class WireProbe {
 public:
  WireProbe(World& w, const Oracle& oracle) : client_("127.0.0.1", w.server->port()) {
    frame_.options.variant = "no-such-variant";
    frame_.payload = oracle.images[0];
    thread_ = std::thread([this] { run(); });
  }
  /// Stops the probe; returns its round trips (ms).
  std::vector<double> finish() {
    stop_ = true;
    thread_.join();
    if (!answered_in_kind_)
      throw std::runtime_error("wire_tiny: unknown-variant probe not answered in kind");
    return rtt_ms_;
  }

 private:
  void run() {
    for (std::uint64_t i = 1; !stop_; ++i) {
      frame_.request_id = i;
      const Clock::time_point t0 = Clock::now();
      answered_in_kind_ =
          answered_in_kind_ && client_.request(frame_).status == serve::Status::kUnknownVariant;
      rtt_ms_.push_back(ms_between(t0, Clock::now()));
      std::this_thread::sleep_until(t0 + std::chrono::milliseconds(2));
    }
  }

  serve::Client client_;
  serve::RequestFrame frame_;
  std::vector<double> rtt_ms_;
  bool answered_in_kind_ = true;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One traced open-loop step through the front door at `rate`, with the
/// engine stamps and probe round trips the layer metrics come from.
struct FrontDoorStep {
  StepResult step;
  Ledger total;
  std::vector<double> rtt_ms, engine_ms, queue_ms, forward_ms;
  double images = 0, batches = 0, full = 0;
  double steal_pct = 0;
};

/// Runs the traced step and adds the serve.* layer metrics.
FrontDoorStep traced_step(World& w, const Oracle& oracle, double rate, double step_s,
                          double limit_ms, std::uint64_t seed, SpanLog& log, Report& rep) {
  FrontDoorStep fd;
  const auto cap = static_cast<std::size_t>(rate * limit_ms / 1000.0 * 50 + 1024);
  const serve::ServerStats v0 = w.server->stats();
  const std::uint64_t admitted0 = w.shards->admitted(), rejected0 = w.shards->rejected();
  std::vector<runtime::EngineStats> e0;
  for (int s = 0; s < kShards; ++s) e0.push_back(w.shards->engine(s).stats());
  const StealClock steal;
  {
    WireTarget target(w.server->port(), oracle);
    LoadGen gen(target, seed);
    WireProbe probe(w, oracle);
    Scoped span(&log, "loadgen.step");
    fd.step = gen.open_loop(rate, step_s, cap);
    fd.total = gen.total();
    fd.rtt_ms = probe.finish();
  }
  fd.steal_pct = steal.pct();
  const serve::ServerStats v1 = w.server->stats();
  const double admitted = static_cast<double>(w.shards->admitted() - admitted0);
  const double rejected = static_cast<double>(w.shards->rejected() - rejected0);
  for (int s = 0; s < kShards; ++s) {
    for (const runtime::trace::RequestTrace& t : w.shards->engine(s).tracer().recent()) {
      const int req = static_cast<int>(log.spans().size());
      log.add("runtime.engine.request", -1, t.enqueue, t.complete);
      log.add("runtime.batcher.queue", req, t.enqueue, t.batch_close);
      log.add("runtime.engine.forward", req, t.forward_start, t.forward_end);
      fd.engine_ms.push_back(t.total_ms());
      fd.queue_ms.push_back(ms_between(t.enqueue, t.batch_close));
      fd.forward_ms.push_back(ms_between(t.forward_start, t.forward_end));
    }
    const runtime::EngineStats e1 = w.shards->engine(s).stats();
    const runtime::EngineStats& b = e0[static_cast<std::size_t>(s)];
    fd.images += static_cast<double>(e1.images - b.images);
    fd.batches += static_cast<double>(e1.batches - b.batches);
    fd.full += static_cast<double>(e1.full_batches - b.full_batches);
  }

  report_protocol(oracle, log, rep);
  rep.add("serve.shard_set.submit_us", shard_submit_us(w, oracle, 2000, log, fd.total), "us");
  rep.add("serve.shard_set.reject_pct",
          admitted + rejected > 0 ? 100 * rejected / (admitted + rejected) : 0, "%");
  const double frames = static_cast<double>(v1.frames_in - v0.frames_in);
  const double bytes =
      static_cast<double>(v1.bytes_in - v0.bytes_in + v1.bytes_out - v0.bytes_out);
  rep.add("serve.server.bytes_per_req", frames > 0 ? bytes / frames : 0, "B");
  rep.add("serve.outside_engine_ms.p50", fd.step.p50() - percentile(fd.engine_ms, 0.5), "ms");
  rep.add("serve.outside_engine_ms.p99", fd.step.p99() - percentile(fd.engine_ms, 0.99), "ms");
  return fd;
}

int run_traced(const Args& args) {
  const double step_s = kFixedRateShare * args.seconds;
  const auto cap = static_cast<std::size_t>(args.low_rps * args.limit_ms / 1000.0 * 50 + 1024);
  double untraced_p50, capacity;
  Ledger untraced;
  {
    std::unique_ptr<World> w = set_up(args, /*traced=*/false);
    const Oracle oracle = make_oracle(*w, args.seed);
    WireTarget target(w->server->port(), oracle);
    LoadGen gen(target, args.seed);
    WireProbe probe(*w, oracle);
    untraced_p50 = gen.open_loop(args.low_rps, step_s, cap).quiet(0.5);
    probe.finish();
    capacity = measure_capacity(gen, args, kProbe);
    untraced = gen.total();
  }

  SpanLog log;
  std::unique_ptr<World> w = set_up(args, /*traced=*/true);
  const Oracle oracle = make_oracle(*w, args.seed);
  Report rep;
  FrontDoorStep fd =
      traced_step(*w, oracle, args.low_rps, step_s, args.limit_ms, args.seed, log, rep);
  const StepResult& step = fd.step;
  rep.add("runtime.engine.queue_wait_ms.p50", percentile(fd.queue_ms, 0.5), "ms");
  rep.add("runtime.engine.queue_wait_ms.p99", percentile(fd.queue_ms, 0.99), "ms");
  rep.add("runtime.engine.forward_ms", median(fd.forward_ms), "ms");
  rep.add("runtime.batcher.batch_fill", fd.batches > 0 ? fd.images / fd.batches : 0, "count");
  rep.add("runtime.batcher.full_batch_pct", fd.batches > 0 ? 100 * fd.full / fd.batches : 0, "%");

  // The served model, profiled like engine_vit's fp32 variant.
  std::unique_ptr<vit::VisionTransformer> model = vit::VisionTransformer::load(w->ckpt);
  model->apply_precision(vit::PrecisionSpec::fp());
  ProfileSummary prof;
  profile_variant(*model, "fp32", stack_images(oracle.images, kMaxBatch), 100, log, rep, prof);
  for (const char* v : {"w2a2-packed", "sc-lut"}) {
    report_profile(rep, v, "b1", nullptr);
    report_profile(rep, v, "bmax", nullptr);
  }
  rep.add("runtime.tf_cache.softmax_row_us", 0, "us");
  rep.add("runtime.tf_cache.gelu_elem_ns", 0, "ns");
  rep.add("nn.gemm_gflops", prof.gemm_gflops, "GFLOP/s");
  rep.add("serialize.cold_start_ms.fp32", w->cold_start_ms, "ms");
  rep.add("serialize.cold_start_ms.w2a2-packed", 0, "ms");
  rep.add("serialize.cold_start_ms.sc-lut", 0, "ms");
  rep.add("runtime.tf_cache.setup_build_ms", 0, "ms");
  report_zero(rep, kSweepLayer);

  // Phases timed from outside the server: generator lag, the engine's
  // enqueue -> complete, and the front door's own round trip (IO thread,
  // decode, route, encode, socket) under the same load. The completion
  // pump's hand-off from a resolved future to the response write is not
  // visible from outside, so these phases must explain at least kWirePhaseFloor
  // of the client latency and not exceed it.
  Reconciliation rc;
  rc.steal_pct = fd.steal_pct;
  rc.op_sum_ratio = prof.worst_ratio;
  rc.phase_floor = kWirePhaseFloor;
  const double phase_sum = mean(step.lag_ms) + mean(fd.engine_ms) + median(fd.rtt_ms);
  rc.phase_ratio = phase_sum / mean(step.latency_ms);
  rc.overhead_pct = 100 * (step.quiet(0.5) - untraced_p50) / untraced_p50;
  std::fprintf(stderr,
               "  traced step: p50 %.3f ms (untraced %.3f); phases lag %.3f + engine %.3f + wire "
               "%.3f = %.3f vs client %.3f ms\n",
               step.quiet(0.5), untraced_p50, mean(step.lag_ms), mean(fd.engine_ms),
               median(fd.rtt_ms), phase_sum, mean(step.latency_ms));
  report_trace(rep, &step, args.limit_ms, capacity, rc);

  const bool drained = drain_clean(*w);
  Ledger total = fd.total;
  total.add(untraced);
  const bool ok = prof.bit_exact && drained && total.wrong == 0 && total.lost == 0 &&
                  total.balanced();
  write_spans(log, args, "wire_tiny");
  rep.emit(ok, total.sent, total.not_ok());
  return 0;
}

}  // namespace

int run_wire_tiny(const Args& args) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  return args.trace ? run_traced(args) : run_end_to_end(args);
}

}  // namespace perfbench
