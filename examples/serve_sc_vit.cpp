// serve_sc_vit — mixed-priority clients against the model-agnostic serving
// runtime.
//
// Trains a small W2-A2-R16 BN-ViT once, saves it to a versioned checkpoint,
// and cold-starts four registered servable variants from that file (fp32
// dense, W2A2 ternary codes, SC LUT-cached, SC circuit-emulated) via
// ModelRegistry::register_from_file — the W2A2/fp32 variants serve their
// weights zero-copy out of a read-only mmap of the checkpoint, exactly how a
// production process would boot. One runtime::InferenceEngine stands over
// the registry. Client threads then hammer it with mixed traffic — interactive
// requests with deadlines, normal requests, and bulk batch-priority
// requests, spread across the variants — exactly as a serving frontend
// would. Prints throughput, per-priority and per-variant client latency
// percentiles, and the engine's scheduling statistics.
//
// The observability layer is on: a scrape thread prints live queue-depth /
// in-flight gauges while the clients run, and after the drain the example
// dumps the engine's Prometheus scrape (per-variant/per-priority latency
// histograms) plus the span-tree trace of the slowest request on record.
// ASCEND_TRACE=0 disables request tracing (used to measure its overhead).
//
// Beyond the in-process demo (no arguments), the example also fronts the
// network serving stack (docs/frontdoor.md):
//
//   serve_sc_vit --server [--port N] [--port-file PATH] [--shards N]
//       trains the small model, saves a checkpoint, cold-starts a ShardSet
//       (fp32 + w2a2-packed per shard, straight off the file) behind a
//       serve::Server, writes the bound port to --port-file, and blocks until
//       a client sends the kFlagDrain control frame.
//   serve_sc_vit --client (--port N | --port-file PATH)
//                [--connections C] [--requests R]
//       connects C clients, issues R requests each (mixed variants and
//       priorities), accounts every response by typed status, drains the
//       server, and exits nonzero unless ok + rejected + typed == issued.
//
// The two modes are the CI loopback smoke: one process serves, the other
// proves the wire protocol, admission control and graceful drain end to end.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/ascend.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/shard_set.h"

using namespace ascend;
using namespace ascend::vit;
using Clock = std::chrono::steady_clock;

namespace {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t i =
      std::min(xs.size() - 1, static_cast<std::size_t>(p * static_cast<double>(xs.size() - 1)));
  return xs[i];
}

struct ClientRecord {
  double latency_ms = 0.0;
  runtime::Priority priority = runtime::Priority::kNormal;
  std::string variant;
  bool correct = false;
  bool deadline_dropped = false;
  bool failed = false;  ///< resolved with a typed error other than a deadline drop
};

}  // namespace

static int run_demo() {
  VitConfig cfg = VitConfig::bench_topology(10);
  cfg.dim = 48;
  cfg.layers = 2;

  const Dataset train = make_synthetic_vision(512, cfg.classes, 11);
  const Dataset test = make_synthetic_vision(240, cfg.classes, 12);

  std::printf("training a %d-layer BN-ViT (dim %d, %d tokens) and quantizing to W2-A2-R16...\n",
              cfg.layers, cfg.dim, cfg.tokens());
  VisionTransformer model(cfg, 3);
  TrainOptions opt;
  opt.epochs = 4;
  opt.lr = 2e-3f;
  opt.batch_size = 64;
  train_model(model, nullptr, train, opt);
  model.apply_precision(PrecisionSpec::w2a2r16());
  opt.epochs = 2;
  opt.lr = 1e-3f;
  train_model(model, nullptr, train, opt);

  ScInferenceConfig sc_cfg;
  sc_cfg.softmax.bx = 8;
  sc_cfg.softmax.alpha_x = 1.0;
  sc_cfg.softmax.by = 32;
  sc_cfg.softmax.k = 3;
  sc_cfg.softmax.s1 = 4;
  sc_cfg.softmax.s2 = 2;
  sc_cfg.softmax.alpha_y = 3.0 / 32;
  sc_cfg.use_sc_gelu = true;
  sc_cfg.gelu_bsl = 16;
  sc_cfg.gelu_range = 4.0;

  // Serving cold-start: persist the trained model once, then register every
  // fidelity variant straight off the checkpoint file — the path a freshly
  // exec'd server takes (no training state in the process, weights mmap'd
  // zero-copy and kept alive by the servables themselves).
  const std::string ckpt_path =
      "/tmp/serve_sc_vit_" + std::to_string(static_cast<long long>(::getpid())) + ".ckpt";
  serialize::save_model(model, ckpt_path);
  std::printf("saved checkpoint to %s, cold-starting all variants from it...\n",
              ckpt_path.c_str());

  auto registry = std::make_shared<runtime::ModelRegistry>();
  runtime::ThreadPool sc_pool(4);  // shared per-activation pool for the SC variants
  ScServableOptions sc_opts;
  sc_opts.pool = &sc_pool;
  runtime::RegisterFromFileOptions from_file;
  from_file.sc_config = &sc_cfg;
  from_file.sc_options = &sc_opts;
  const auto boot0 = Clock::now();
  registry->register_from_file("sc-lut", ckpt_path, runtime::VariantKind::kScLut, from_file);
  registry->register_from_file("sc-emulated", ckpt_path, runtime::VariantKind::kScEmulated,
                               from_file);
  registry->register_from_file("w2a2-packed", ckpt_path, runtime::VariantKind::kPackedTernary,
                               from_file);
  registry->register_from_file("fp32", ckpt_path, runtime::VariantKind::kFp32, from_file);
  std::printf("cold-started %zu variants from disk in %.1f ms\n", registry->size(),
              std::chrono::duration<double, std::milli>(Clock::now() - boot0).count());

  runtime::EngineOptions eng_opts;
  eng_opts.max_batch = 16;
  eng_opts.max_delay = std::chrono::microseconds(2000);
  eng_opts.concurrent_forwards = 2;  // re-entrant infer path: batch forwards overlap
  eng_opts.default_variant = "sc-lut";
  const char* trace_env = std::getenv("ASCEND_TRACE");
  eng_opts.trace.enabled = !(trace_env && trace_env[0] == '0');
  eng_opts.trace.slowest = 4;
  runtime::InferenceEngine engine(registry, eng_opts);

  constexpr int kClients = 8;
  const int per_client = test.size() / kClients;
  std::printf("registered variants:");
  for (const auto& id : registry->variant_ids()) std::printf(" %s", id.c_str());
  std::printf("\nserving %d images from %d concurrent clients (sc pool=%d, max_batch=%d, "
              "max_delay=%lldus, concurrent_forwards=%d, default=%s)...\n",
              per_client * kClients, kClients, sc_pool.size(), eng_opts.max_batch,
              static_cast<long long>(eng_opts.max_delay.count()), engine.concurrent_forwards(),
              engine.default_variant().c_str());

  // Traffic mix: 2 interactive clients with 50 ms deadlines on the serving
  // default, 2 batch-priority bulk clients on the cheap W2A2 variant, and
  // 4 normal clients spread across all four variants. Every client carries a
  // retry budget with a fallback variant, so a transient forward fault (e.g.
  // an armed ASCEND_FAILPOINTS schedule) degrades service instead of
  // erroring it.
  const auto client_opts = [&](int c) {
    runtime::RequestOptions ropts;
    if (c < 2) {
      ropts.priority = runtime::Priority::kInteractive;
      ropts.deadline = std::chrono::microseconds(50'000);
      ropts.variant = "sc-lut";
    } else if (c < 4) {
      ropts.priority = runtime::Priority::kBatch;
      ropts.variant = "w2a2-packed";
    } else {
      ropts.priority = runtime::Priority::kNormal;
      const std::vector<std::string> ids = registry->variant_ids();
      ropts.variant = ids[static_cast<std::size_t>(c) % ids.size()];
    }
    ropts.retry.max_attempts = 2;
    ropts.retry.backoff = std::chrono::microseconds(200);
    ropts.retry.fallback_variant = ropts.variant == "fp32" ? "w2a2-packed" : "fp32";
    return ropts;
  };

  const int pixels = test.images.dim(1);
  std::vector<std::vector<ClientRecord>> records(kClients);
  std::vector<std::thread> clients;
  const auto t0 = Clock::now();

  // Live scrape: what a metrics poller would see while the clients run.
  std::atomic<bool> serving{true};
  std::thread scraper([&] {
    while (serving.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (!serving.load()) break;
      const runtime::PendingCounts q = engine.pending();
      const runtime::EngineStats st = engine.stats();
      std::printf("  [scrape t=%5.2fs] queue=%zu (int %zu / norm %zu / batch %zu)  "
                  "in_flight=%d  served=%llu\n",
                  std::chrono::duration<double>(Clock::now() - t0).count(), q.total,
                  q.by_priority[0], q.by_priority[1], q.by_priority[2], engine.in_flight(),
                  static_cast<unsigned long long>(st.images));
    }
  });
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(c) + 1);
      std::uniform_int_distribution<int> jitter_us(0, 500);
      const runtime::RequestOptions ropts = client_opts(c);
      for (int i = 0; i < per_client; ++i) {
        const int r = c * per_client + i;
        std::vector<float> img(static_cast<std::size_t>(pixels));
        for (int p = 0; p < pixels; ++p)
          img[static_cast<std::size_t>(p)] = test.images.at(r, p);
        ClientRecord rec;
        rec.priority = ropts.priority;
        rec.variant = ropts.variant;
        const auto sent = Clock::now();
        try {
          auto fut = engine.submit(std::move(img), ropts);
          const runtime::Prediction pred = fut.get();
          rec.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
          rec.correct = pred.label == test.labels[static_cast<std::size_t>(r)];
        } catch (const runtime::DeadlineExceededError&) {
          rec.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
          rec.deadline_dropped = true;
        } catch (const std::exception&) {
          // Any other typed failure (queue overflow, watchdog trip, injected
          // fault from an ASCEND_FAILPOINTS schedule): the request is over,
          // the client moves on. No failure mode escapes the future.
          rec.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
          rec.failed = true;
        }
        records[static_cast<std::size_t>(c)].push_back(std::move(rec));
        std::this_thread::sleep_for(std::chrono::microseconds(jitter_us(rng)));
      }
    });
  }
  // Operator thread: a checkpoint push lands mid-traffic. First a corrupted
  // file (a few payload bytes flipped — the CRC battery refuses it), then a
  // canary-validated push of the pristine checkpoint. The broken push rolls
  // back — the incumbent keeps serving on its old generation and the
  // rollback counter ticks — while the good push hot-swaps underneath the
  // running clients without dropping a request.
  std::thread operator_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const std::string corrupt_path = ckpt_path + ".corrupt";
    {
      FILE* in = std::fopen(ckpt_path.c_str(), "rb");
      FILE* out = std::fopen(corrupt_path.c_str(), "wb");
      if (!in || !out) return;
      std::fseek(in, 0, SEEK_END);
      const long size = std::ftell(in);
      std::fseek(in, 0, SEEK_SET);
      std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
      if (std::fread(bytes.data(), 1, bytes.size(), in) != bytes.size()) return;
      for (long off = size / 2; off < size / 2 + 8 && off < size; ++off)
        bytes[static_cast<std::size_t>(off)] ^= 0xFF;
      std::fwrite(bytes.data(), 1, bytes.size(), out);
      std::fclose(in);
      std::fclose(out);
    }
    nn::Tensor golden = nn::Tensor::uninitialized({4, pixels});
    for (int r = 0; r < 4; ++r)
      for (int p = 0; p < pixels; ++p) golden.at(r, p) = test.images.at(r, p);
    runtime::CanaryOptions canary;
    canary.golden_input = golden;
    canary.require_label_match = true;
    runtime::RegisterFromFileOptions push = from_file;
    push.canary = &canary;
    const std::uint64_t gen_before = registry->generation("sc-lut");
    const std::uint64_t rb_before = registry->rollbacks();
    try {
      registry->register_from_file("sc-lut", corrupt_path, runtime::VariantKind::kScLut, push);
      std::printf("  [operator] ERROR: corrupt checkpoint push was accepted\n");
    } catch (const std::exception& e) {
      std::printf("  [operator] corrupt push rejected (%s); generation %llu -> %llu, "
                  "rollbacks %llu -> %llu\n",
                  e.what(), static_cast<unsigned long long>(gen_before),
                  static_cast<unsigned long long>(registry->generation("sc-lut")),
                  static_cast<unsigned long long>(rb_before),
                  static_cast<unsigned long long>(registry->rollbacks()));
    }
    try {
      const std::uint64_t gen =
          registry->register_from_file("sc-lut", ckpt_path, runtime::VariantKind::kScLut, push);
      std::printf("  [operator] canary-validated hot-swap published generation %llu mid-traffic\n",
                  static_cast<unsigned long long>(gen));
    } catch (const std::exception& e) {
      std::printf("  [operator] ERROR: pristine push rejected: %s\n", e.what());
    }
    ::unlink(corrupt_path.c_str());
  });

  for (auto& t : clients) t.join();
  operator_thread.join();
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  serving.store(false);
  scraper.join();

  std::vector<ClientRecord> all;
  for (auto& r : records) all.insert(all.end(), r.begin(), r.end());
  int served = 0, correct = 0, dropped = 0, failed = 0;
  std::vector<double> all_lat;
  std::map<runtime::Priority, std::vector<double>> by_prio;
  std::map<std::string, std::vector<double>> by_variant;
  std::map<std::string, int> variant_correct, variant_count;
  for (const ClientRecord& rec : all) {
    if (rec.deadline_dropped) {
      ++dropped;
      continue;
    }
    if (rec.failed) {
      ++failed;
      continue;
    }
    ++served;
    if (rec.correct) ++correct;
    all_lat.push_back(rec.latency_ms);
    by_prio[rec.priority].push_back(rec.latency_ms);
    by_variant[rec.variant].push_back(rec.latency_ms);
    variant_count[rec.variant] += 1;
    if (rec.correct) variant_correct[rec.variant] += 1;
  }

  std::printf("\nserved %d images (+%d deadline-dropped, +%d failed typed) in %.2f s  ->  "
              "%.1f images/s\n",
              served, dropped, failed, wall_s, served / wall_s);
  std::printf("client latency (aggregate): p50 %.2f ms, p95 %.2f ms, max %.2f ms\n",
              percentile(all_lat, 0.50), percentile(all_lat, 0.95), percentile(all_lat, 1.0));

  std::printf("\nper-priority client latency:\n");
  for (const auto& [p, lat] : by_prio)
    std::printf("  %-12s p50 %6.2f ms   p95 %6.2f ms   (%zu served)\n",
                runtime::priority_name(p), percentile(lat, 0.50), percentile(lat, 0.95),
                lat.size());
  std::printf("per-variant client latency:\n");
  for (const auto& [v, lat] : by_variant)
    std::printf("  %-12s p50 %6.2f ms   p95 %6.2f ms   acc %5.1f%%   (%zu served)\n", v.c_str(),
                percentile(lat, 0.50), percentile(lat, 0.95),
                100.0 * variant_correct[v] / std::max(variant_count[v], 1), lat.size());

  const runtime::EngineStats st = engine.stats();
  std::printf("\nbatching: %llu batches, avg fill %.1f images, %llu full, %llu idle-closed, "
              "avg queue wait %.2f ms, peak forwards in flight %d\n",
              static_cast<unsigned long long>(st.batches), st.avg_batch(),
              static_cast<unsigned long long>(st.full_batches),
              static_cast<unsigned long long>(st.idle_batches), st.avg_queue_ms(),
              st.max_in_flight);
  std::printf("scheduler counters (queued / served / deadline-dropped / rejected):\n");
  for (int p = 0; p < runtime::kNumPriorities; ++p) {
    const runtime::PriorityStats& ps = st.by_priority[static_cast<std::size_t>(p)];
    std::printf("  %-12s %6llu / %6llu / %6llu / %6llu\n",
                runtime::priority_name(static_cast<runtime::Priority>(p)),
                static_cast<unsigned long long>(ps.queued),
                static_cast<unsigned long long>(ps.served),
                static_cast<unsigned long long>(ps.deadline_dropped),
                static_cast<unsigned long long>(ps.rejected));
  }
  std::printf("overall served accuracy: %.2f%%\n", 100.0 * correct / std::max(served, 1));

  // Resilience counters: what the self-healing layers did during the run
  // (nonzero retries/fires only under an ASCEND_FAILPOINTS schedule; the
  // operator thread always lands one rollback and one extra publish).
  std::uint64_t retries = 0, fallback_served = 0;
  for (int p = 0; p < runtime::kNumPriorities; ++p) {
    retries += st.by_priority[static_cast<std::size_t>(p)].retries;
    fallback_served += st.by_priority[static_cast<std::size_t>(p)].fallback_served;
  }
  std::printf("resilience: %llu retries, %llu fallback-served, %llu watchdog trips, "
              "%llu publishes, %llu rollbacks, %llu failpoint fires\n",
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(fallback_served),
              static_cast<unsigned long long>(st.watchdog_trips),
              static_cast<unsigned long long>(registry->publishes()),
              static_cast<unsigned long long>(registry->rollbacks()),
              static_cast<unsigned long long>(runtime::failpoint::total_fires()));

  // Server-side latency: the engine's own histograms, per (variant, priority).
  const runtime::metrics::RegistrySnapshot snap = engine.metrics()->snapshot();
  std::printf("\nengine latency histograms (ascend_request_latency_usec, <=3.2%% bucket error):\n");
  std::printf("  %-14s %-12s %9s %9s %9s %9s %8s\n", "variant", "priority", "p50 ms", "p95 ms",
              "p99 ms", "p99.9 ms", "count");
  for (const auto& id : registry->variant_ids()) {
    for (int p = 0; p < runtime::kNumPriorities; ++p) {
      const auto* h = snap.histogram(
          "ascend_request_latency_usec",
          {{"variant", id}, {"priority", runtime::priority_name(static_cast<runtime::Priority>(p))}});
      if (!h || h->count == 0) continue;
      std::printf("  %-14s %-12s %9.2f %9.2f %9.2f %9.2f %8llu\n", id.c_str(),
                  runtime::priority_name(static_cast<runtime::Priority>(p)),
                  h->quantile(0.50) / 1e3, h->quantile(0.95) / 1e3, h->quantile(0.99) / 1e3,
                  h->quantile(0.999) / 1e3, static_cast<unsigned long long>(h->count));
    }
  }

  std::printf("\n-- Prometheus scrape (final) --\n%s",
              engine.metrics()->render_prometheus().c_str());

  if (eng_opts.trace.enabled) {
    const auto slowest = engine.tracer().slowest();
    if (!slowest.empty()) {
      std::printf("\n-- slowest request on record (of %zu retained) --\n%s", slowest.size(),
                  runtime::trace::format_trace(slowest.front()).c_str());
    }
  } else {
    std::printf("\n(request tracing disabled via ASCEND_TRACE=0)\n");
  }
  ::unlink(ckpt_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Network front-door modes (--server / --client). Both sides agree on this
// small topology so the client knows the payload size without a handshake.
// ---------------------------------------------------------------------------

namespace {

VitConfig frontdoor_config() {
  VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;
  cfg.dim = 32;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.classes = 8;
  return cfg;
}

int frontdoor_pixels() {
  const VitConfig cfg = frontdoor_config();
  return cfg.channels * cfg.image_size * cfg.image_size;
}

/// Resolve the server port: an explicit --port wins; otherwise poll
/// --port-file until the server publishes it (the CI smoke launches the
/// server in the background and the client races its startup).
int resolve_port(int port, const std::string& port_file) {
  if (port > 0) return port;
  if (port_file.empty()) return -1;
  for (int attempt = 0; attempt < 300; ++attempt) {
    if (FILE* f = std::fopen(port_file.c_str(), "rb")) {
      int p = 0;
      const int got = std::fscanf(f, "%d", &p);
      std::fclose(f);
      if (got == 1 && p > 0) return p;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

int run_server(int port, const std::string& port_file, int shards) {
  const VitConfig cfg = frontdoor_config();
  const Dataset train = make_synthetic_vision(256, cfg.classes, 21, cfg.image_size);

  std::printf("[server] training a %d-layer BN-ViT (dim %d) for the front door...\n", cfg.layers,
              cfg.dim);
  VisionTransformer model(cfg, 3);
  TrainOptions opt;
  opt.epochs = 2;
  opt.lr = 2e-3f;
  opt.batch_size = 64;
  train_model(model, nullptr, train, opt);
  model.apply_precision(PrecisionSpec::w2a2r16());
  opt.epochs = 1;
  train_model(model, nullptr, train, opt);

  const std::string ckpt_path =
      "/tmp/serve_sc_vit_frontdoor_" + std::to_string(static_cast<long long>(::getpid())) +
      ".ckpt";
  serialize::save_model(model, ckpt_path);

  // Every shard cold-starts its own registry straight off the checkpoint
  // file — shards share nothing on the request path.
  serve::ShardSetOptions sopts;
  sopts.shards = shards;
  sopts.engine.max_batch = 16;
  sopts.engine.max_pending = 128;
  sopts.engine.max_delay = std::chrono::microseconds(1000);
  sopts.engine.default_variant = "fp32";
  const auto boot0 = Clock::now();
  serve::ShardSet shard_set(
      [&](int, runtime::ModelRegistry& registry) {
        runtime::RegisterFromFileOptions from_file;
        registry.register_from_file("fp32", ckpt_path, runtime::VariantKind::kFp32, from_file);
        registry.register_from_file("w2a2-packed", ckpt_path,
                                    runtime::VariantKind::kPackedTernary, from_file);
      },
      sopts);
  std::printf("[server] cold-started %d shards x 2 variants from %s in %.1f ms\n",
              shard_set.shards(), ckpt_path.c_str(),
              std::chrono::duration<double, std::milli>(Clock::now() - boot0).count());

  serve::ServerOptions server_opts;
  server_opts.port = static_cast<std::uint16_t>(port > 0 ? port : 0);
  server_opts.completion_threads = 2;
  serve::Server server(shard_set, server_opts);

  if (!port_file.empty()) {
    // Write-then-rename so a polling client never reads a partial file.
    const std::string tmp = port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "[server] cannot write port file %s\n", tmp.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
    std::fclose(f);
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::fprintf(stderr, "[server] cannot publish port file %s\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("[server] front door listening on 127.0.0.1:%u (%d shards); waiting for drain\n",
              static_cast<unsigned>(server.port()), shard_set.shards());
  std::fflush(stdout);

  server.wait_drained();

  const serve::ServerStats st = server.stats();
  std::printf("[server] drained: %llu connections, %llu frames in, %llu responses out, "
              "%llu protocol errors, admitted %llu, rejected %llu\n",
              static_cast<unsigned long long>(st.connections_accepted),
              static_cast<unsigned long long>(st.frames_in),
              static_cast<unsigned long long>(st.responses_out),
              static_cast<unsigned long long>(st.protocol_errors),
              static_cast<unsigned long long>(shard_set.admitted()),
              static_cast<unsigned long long>(shard_set.rejected()));
  ::unlink(ckpt_path.c_str());
  if (st.frames_in != st.responses_out) {
    std::fprintf(stderr, "[server] LOST REQUESTS: %llu frames in vs %llu responses out\n",
                 static_cast<unsigned long long>(st.frames_in),
                 static_cast<unsigned long long>(st.responses_out));
    return 1;
  }
  return 0;
}

int run_client(int port, const std::string& port_file, int connections, int requests) {
  const int resolved = resolve_port(port, port_file);
  if (resolved <= 0) {
    std::fprintf(stderr, "[client] no server port (give --port or --port-file)\n");
    return 2;
  }
  const int pixels = frontdoor_pixels();
  std::printf("[client] %d connections x %d requests against 127.0.0.1:%d (payload %d floats)\n",
              connections, requests, resolved, pixels);

  std::atomic<std::uint64_t> ok{0}, rejected{0}, typed{0}, transport_errors{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      try {
        serve::Client client("127.0.0.1", static_cast<std::uint16_t>(resolved));
        std::mt19937_64 rng(static_cast<std::uint64_t>(c) * 7919 + 17);
        std::uniform_real_distribution<float> pix(-1.0f, 1.0f);
        for (int i = 0; i < requests; ++i) {
          serve::RequestFrame req;
          req.request_id = static_cast<std::uint64_t>(c) << 32 | static_cast<std::uint32_t>(i);
          req.options.variant = (i % 2 == 0) ? "fp32" : "w2a2-packed";
          req.options.priority = static_cast<runtime::Priority>(i % runtime::kNumPriorities);
          req.payload.resize(static_cast<std::size_t>(pixels));
          for (float& v : req.payload) v = pix(rng);
          const serve::ResponseFrame resp = client.request(req);
          if (resp.status == serve::Status::kOk)
            ++ok;
          else if (resp.status == serve::Status::kRetryAfter)
            ++rejected;
          else
            ++typed;
          if (resp.status == serve::Status::kRetryAfter && resp.retry_after_ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(resp.retry_after_ms));
        }
      } catch (const std::exception& e) {
        // A transport-level failure (refused connect, mid-stream EOF) breaks
        // the accounting invariant below — count it so the exit code trips.
        std::fprintf(stderr, "[client %d] transport error: %s\n", c, e.what());
        ++transport_errors;
      }
    });
  }
  for (auto& t : workers) t.join();

  const std::uint64_t issued =
      static_cast<std::uint64_t>(connections) * static_cast<std::uint64_t>(requests);
  const std::uint64_t answered = ok.load() + rejected.load() + typed.load();
  std::printf("[client] issued %llu: ok %llu, rejected (retry-after) %llu, typed errors %llu\n",
              static_cast<unsigned long long>(issued), static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(typed.load()));

  int rc = 0;
  if (transport_errors.load() != 0 || answered != issued) {
    std::fprintf(stderr, "[client] ACCOUNTING BROKEN: answered %llu != issued %llu (%llu "
                 "transport errors)\n",
                 static_cast<unsigned long long>(answered),
                 static_cast<unsigned long long>(issued),
                 static_cast<unsigned long long>(transport_errors.load()));
    rc = 1;
  }

  try {
    serve::Client drainer("127.0.0.1", static_cast<std::uint16_t>(resolved));
    const serve::ResponseFrame ack = drainer.drain_server(issued + 1);
    std::printf("[client] drain acknowledged (%s)\n", serve::status_name(ack.status));
    if (ack.status != serve::Status::kOk) rc = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[client] drain failed: %s\n", e.what());
    rc = 1;
  }
  return rc;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s                                  in-process serving demo\n"
               "       %s --server [--port N] [--port-file PATH] [--shards N]\n"
               "       %s --client (--port N | --port-file PATH) [--connections C] "
               "[--requests R]\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return run_demo();

  bool server = false, client = false;
  int port = 0, shards = 2, connections = 4, requests = 100;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--server") {
      server = true;
    } else if (arg == "--client") {
      client = true;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--port-file") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      port_file = v;
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      shards = std::atoi(v);
    } else if (arg == "--connections") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      connections = std::atoi(v);
    } else if (arg == "--requests") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      requests = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (server == client) return usage(argv[0]);  // exactly one mode
  if (shards < 1 || connections < 1 || requests < 1) return usage(argv[0]);
  return server ? run_server(port, port_file, shards) : run_client(port, port_file, connections,
                                                                   requests);
}
