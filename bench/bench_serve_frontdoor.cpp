// bench_serve_frontdoor — open-loop saturation of the network front door.
//
// Drives a live serve::Server (epoll loop + ShardSet of engines serving a
// small fp32 ViT) over loopback from hundreds of multiplexed client
// connections, sweeping offered load from half of measured capacity to 3x
// past it. The claim under test: admission control converts overload into
// typed kRetryAfter shedding — goodput holds near capacity and the latency
// of ACCEPTED requests stays bounded, instead of the latency collapse an
// unbounded queue would produce. A second scenario runs a canary-validated
// rolling publish across the shards mid-traffic and asserts the accounting
// invariant: issued == ok + rejected + typed, zero requests lost.
//
//   --json <path>   machine-readable results (CI artifact / bench_compare)
//   ASCEND_FAST=1   smoke sizing

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "vit/model.h"
#include "vit/servable.h"

using namespace ascend;
using Clock = std::chrono::steady_clock;

namespace {

struct SweepResult {
  double offered_rps = 0;
  double goodput_rps = 0;
  double reject_pct = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  std::uint64_t issued = 0, ok = 0, rejected = 0, typed = 0;
};

/// One worker: owns `conns` multiplexed connections, paces sends open-loop
/// at `rate_rps` (the schedule never waits for responses), reaps responses
/// non-blocking between sends, and records ok-latencies.
struct Worker {
  std::vector<serve::Client> clients;
  std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
  std::vector<double> ok_latency_ms;
  std::uint64_t issued = 0, ok = 0, rejected = 0, typed = 0;

  void reap(std::size_t conn) {
    bool eof = false;
    while (auto resp = clients[conn].poll_response(&eof)) {
      const auto it = sent_at.find(resp->request_id);
      if (resp->status == serve::Status::kOk) {
        ++ok;
        if (it != sent_at.end())
          ok_latency_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - it->second).count());
      } else if (resp->status == serve::Status::kRetryAfter) {
        ++rejected;
      } else {
        ++typed;
      }
      if (it != sent_at.end()) sent_at.erase(it);
    }
  }

  void run(std::uint64_t id_base, double rate_rps, std::chrono::milliseconds duration,
           const std::vector<float>& payload) {
    using namespace std::chrono;
    const auto gap = nanoseconds(static_cast<std::uint64_t>(1e9 / rate_rps));
    const auto start = Clock::now();
    const auto end = start + duration;
    auto next_send = start;
    std::uint64_t id = id_base;
    std::size_t conn = 0;
    while (Clock::now() < end) {
      // Open loop: send every request whose schedule slot has passed, round-
      // robin across this worker's connections. Falling behind bursts to
      // catch up — offered load is independent of server behaviour — but the
      // burst is capped so the worker always comes back to reap (a sender
      // that never drains responses would deadlock both socket buffers).
      int burst = 0;
      while (next_send <= Clock::now() && burst < 256 && Clock::now() < end) {
        serve::RequestFrame f;
        f.request_id = id;
        f.payload = payload;
        sent_at.emplace(id, Clock::now());
        clients[conn].send(f);
        ++issued;
        ++id;
        conn = (conn + 1) % clients.size();
        next_send += gap;
        ++burst;
      }
      for (std::size_t c = 0; c < clients.size(); ++c) reap(c);
      if (burst < 256) std::this_thread::sleep_for(microseconds(200));
    }
    // Tail: every issued request must resolve (the queues are bounded, so
    // this converges fast). Bounded wait keeps a wedged server diagnosable.
    const auto tail_deadline = Clock::now() + seconds(5);
    while (!sent_at.empty() && Clock::now() < tail_deadline) {
      for (std::size_t c = 0; c < clients.size(); ++c) reap(c);
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
};

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

SweepResult run_open_loop(serve::Server& server, double offered_rps, int threads,
                          int conns_per_thread, std::chrono::milliseconds duration,
                          const std::vector<float>& payload) {
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  for (auto& w : workers)
    for (int c = 0; c < conns_per_thread; ++c) w.clients.emplace_back("127.0.0.1", server.port());
  std::vector<std::thread> pool;
  pool.reserve(workers.size());
  for (std::size_t t = 0; t < workers.size(); ++t)
    pool.emplace_back([&, t] {
      workers[t].run(t * 10'000'000ull, offered_rps / threads, duration, payload);
    });
  for (auto& t : pool) t.join();

  SweepResult r;
  r.offered_rps = offered_rps;
  std::vector<double> lat;
  for (Worker& w : workers) {
    r.issued += w.issued;
    r.ok += w.ok;
    r.rejected += w.rejected;
    r.typed += w.typed + w.sent_at.size();  // unresolved tail counts against us
    lat.insert(lat.end(), w.ok_latency_ms.begin(), w.ok_latency_ms.end());
  }
  const double secs = std::chrono::duration<double>(duration).count();
  r.goodput_rps = static_cast<double>(r.ok) / secs;
  r.reject_pct = r.issued ? 100.0 * static_cast<double>(r.rejected) / static_cast<double>(r.issued) : 0;
  r.p50_ms = percentile(lat, 0.50);
  r.p95_ms = percentile(lat, 0.95);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  bench::JsonWriter json;
  bench::banner("network front door — open-loop saturation and load shedding",
                "serving extension (no table in the paper)");

  // Small fp32 ViT: fast enough that the socket/router path, not the GEMM,
  // is what saturates — this bench measures the front door.
  vit::VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;
  cfg.dim = 32;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.classes = 10;
  vit::VisionTransformer model(cfg, 7);
  const std::vector<float> payload(
      static_cast<std::size_t>(cfg.channels * cfg.image_size * cfg.image_size), 0.5f);

  serve::ShardSetOptions sopts;
  sopts.shards = 2;
  sopts.engine.max_batch = 16;
  sopts.engine.max_delay = std::chrono::microseconds{500};
  sopts.engine.concurrent_forwards = 2;
  sopts.engine.max_pending = 128;
  sopts.engine.default_variant = "fp32";
  serve::ShardSet shards(
      [&](int, runtime::ModelRegistry& reg) {
        reg.publish(
            vit::make_servable(model.clone_for_serving(), runtime::VariantKind::kFp32, "fp32"));
      },
      sopts);
  serve::Server server(shards, {.completion_threads = 4});

  const bool fast = bench::fast_mode();
  const int threads = fast ? 2 : 4;
  const int conns_per_thread = fast ? 16 : 64;  // 256 live connections full-size
  const auto duration = std::chrono::milliseconds(fast ? 400 : 1500);
  std::printf("\n%d shards, %d connections, payload %zu floats\n", sopts.shards,
              threads * conns_per_thread, payload.size());

  // Capacity probe: escalate the offered rate until goodput stops tracking
  // it (the server saturated) or the senders themselves cap out — the last
  // goodput measured is the serving capacity.
  double capacity = 100.0;
  {
    const auto probe_dur = std::chrono::milliseconds(fast ? 250 : 600);
    double requested = fast ? 4000 : 8000;
    for (int step = 0; step < 8; ++step) {
      const SweepResult probe =
          run_open_loop(server, requested, threads, conns_per_thread, probe_dur, payload);
      const double actual_offered =
          static_cast<double>(probe.issued) / std::chrono::duration<double>(probe_dur).count();
      capacity = std::max(capacity, probe.goodput_rps);
      std::printf("capacity probe: offered %.0f (sent %.0f) -> goodput %.0f req/s\n", requested,
                  actual_offered, probe.goodput_rps);
      const bool server_saturated = probe.goodput_rps < 0.85 * actual_offered;
      const bool sender_capped = actual_offered < 0.7 * requested;
      if (server_saturated || sender_capped) break;
      requested *= 2;
    }
  }
  std::printf("measured capacity: %.0f req/s\n", capacity);
  json.add("frontdoor_capacity_rps", capacity);

  // The shedding curve: goodput and accepted-request latency vs offered load.
  std::printf("\n-- goodput vs offered load (open loop) --\n");
  std::printf("  %8s %12s %12s %10s %10s %10s\n", "offered", "offered r/s", "goodput r/s",
              "reject %", "p50 ms", "p95 ms");
  const std::pair<const char*, double> points[] = {
      {"x05", 0.5}, {"x09", 0.9}, {"x15", 1.5}, {"x30", 3.0}};
  SweepResult near_cap, overload;
  for (const auto& [suffix, mult] : points) {
    const SweepResult r =
        run_open_loop(server, capacity * mult, threads, conns_per_thread, duration, payload);
    std::printf("  %7.1fx %12.0f %12.0f %9.1f%% %10.2f %10.2f\n", mult, r.offered_rps,
                r.goodput_rps, r.reject_pct, r.p50_ms, r.p95_ms);
    json.add(std::string("frontdoor_offered_") + suffix + "_rps", r.offered_rps);
    json.add(std::string("frontdoor_goodput_") + suffix + "_rps", r.goodput_rps);
    json.add(std::string("frontdoor_reject_pct_") + suffix, r.reject_pct);
    json.add(std::string("frontdoor_p50_ms_") + suffix, r.p50_ms);
    json.add(std::string("frontdoor_p95_ms_") + suffix, r.p95_ms);
    if (std::string(suffix) == "x09") near_cap = r;
    if (std::string(suffix) == "x30") overload = r;
  }
  // Load shedding, quantified: goodput at 3x overload retained vs near
  // capacity, and accepted-request p50 stays in the same regime instead of
  // queueing collapse.
  const double retention =
      near_cap.goodput_rps > 0 ? overload.goodput_rps / near_cap.goodput_rps : 0;
  const double p50_ratio = near_cap.p50_ms > 0 ? overload.p50_ms / near_cap.p50_ms : 0;
  std::printf("\n  goodput retention at 3.0x overload: %.2f (vs 0.9x)\n", retention);
  std::printf("  accepted-request p50 ratio at 3.0x: %.2f (bounded => shedding works)\n",
              p50_ratio);
  json.add("frontdoor_shed_goodput_retention", retention);
  json.add("frontdoor_overload_p50_ratio", p50_ratio);

  // Rolling publish under live traffic: drain -> swap -> readmit each shard
  // while the open loop keeps offering ~0.9x capacity. Zero lost requests.
  std::printf("\n-- rolling canary-validated publish under live traffic --\n");
  std::atomic<bool> publish_ok{false};
  SweepResult rolling;
  {
    nn::Tensor golden({2, cfg.channels * cfg.image_size * cfg.image_size});
    for (int r = 0; r < golden.dim(0); ++r)
      for (int c = 0; c < golden.dim(1); ++c) golden.at(r, c) = 0.5f;
    runtime::CanaryOptions canary;
    canary.golden_input = golden;
    canary.max_abs_logit_diff = 1e-6;
    std::thread publisher([&] {
      std::this_thread::sleep_for(duration / 3);
      const serve::PublishAllResult r = shards.rolling_publish(
          [&](int) {
            return vit::make_servable(model.clone_for_serving(), runtime::VariantKind::kFp32,
                                      "fp32");
          },
          &canary);
      publish_ok.store(r.published);
    });
    rolling = run_open_loop(server, capacity * 0.9, threads, conns_per_thread, duration, payload);
    publisher.join();
  }
  const std::uint64_t lost = rolling.issued - rolling.ok - rolling.rejected - rolling.typed;
  std::printf("  issued %llu  ok %llu  rejected %llu  typed %llu  lost %llu  publish %s\n",
              static_cast<unsigned long long>(rolling.issued),
              static_cast<unsigned long long>(rolling.ok),
              static_cast<unsigned long long>(rolling.rejected),
              static_cast<unsigned long long>(rolling.typed),
              static_cast<unsigned long long>(lost), publish_ok.load() ? "committed" : "FAILED");
  json.add("frontdoor_rolling_issued", static_cast<std::int64_t>(rolling.issued));
  json.add("frontdoor_rolling_ok", static_cast<std::int64_t>(rolling.ok));
  json.add("frontdoor_rolling_rejected", static_cast<std::int64_t>(rolling.rejected));
  json.add("frontdoor_rolling_typed", static_cast<std::int64_t>(rolling.typed));
  json.add("frontdoor_rolling_lost", static_cast<std::int64_t>(lost));
  json.add("frontdoor_rolling_publish_committed",
           static_cast<std::int64_t>(publish_ok.load() ? 1 : 0));

  // Clean drain closes the run.
  {
    serve::Client finisher("127.0.0.1", server.port());
    finisher.drain_server();
  }
  server.wait_drained();
  const serve::ServerStats stats = server.stats();
  std::printf("\n  drained clean: %llu frames in, %llu responses out, %llu protocol errors\n",
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.responses_out),
              static_cast<unsigned long long>(stats.protocol_errors));
  json.add("frontdoor_drain_clean",
           static_cast<std::int64_t>(stats.frames_in == stats.responses_out ? 1 : 0));

  if (!json_path.empty() && !json.write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return lost == 0 && publish_ok.load() ? 0 : 1;
}
