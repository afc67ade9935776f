// bench_serve — serving-frontend throughput/latency bench.
//
// Stands up a real habit_serve engine (TCP on an ephemeral loopback port,
// shared worker pool, process-wide ModelCache over a snapshot built from
// a synthetic KIEL feed), then drives it with N concurrent line-protocol
// clients issuing ImputeBatch frames drawn from the experiment's gap
// cases. Reports throughput (serve_qps) and per-frame latency (p50/p99),
// next to the in-process ImputeBatch rate over the identical workload at
// the server's parallelism (threads= its worker count, warmed), so the
// protocol + dispatch overhead is visible as one ratio.
//
//   bench_serve [scale] [clients] [frames_per_client] [batch]
//              [--binary] [--idle N]
//
//   --binary   clients speak the length-prefixed binary frame protocol
//              (src/server/frame.h) instead of JSON lines; the request
//              frame is encoded once and reused, so the row measures the
//              wire + dispatch path, not client-side encoding
//   --idle N   park N connected-but-silent connections before the timed
//              run — the ingest shape the epoll loop exists for; raises
//              RLIMIT_NOFILE as needed (each idle connection costs two
//              fds here: both endpoints live in this process)
//
// Machine-readable results are emitted as `BENCH_METRIC {json}` lines
// (folded by bench/run_all.sh into the trajectory file).
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parse.h"
#include "core/stopwatch.h"
#include "eval/harness.h"
#include "server/frame.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using namespace habit;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  int clients = 4;
  int frames_per_client = 8;
  int batch = 32;
  bool binary = false;
  int64_t idle_count = 0;
  const char* names[] = {"scale", "clients", "frames_per_client", "batch"};
  const auto usage = [&names](int i, const char* arg) {
    std::fprintf(stderr,
                 "usage: bench_serve [scale] [clients] "
                 "[frames_per_client] [batch] [--binary] [--idle N] "
                 "(%s: %s)\n",
                 i > 0 ? names[i - 1] : "flag", arg);
    return 2;
  };
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--binary") {
      binary = true;
      continue;
    }
    if (arg == "--idle") {
      if (i + 1 >= argc) return usage(0, "--idle needs a value");
      const auto v = core::ParseInt64(argv[++i]);
      if (!v.ok() || v.value() < 0 || v.value() > 1000000) {
        return usage(0, argv[i]);
      }
      idle_count = v.value();
      continue;
    }
    ++positional;
    if (positional == 1) {
      const auto v = core::ParseDouble(argv[i]);
      if (!v.ok() || v.value() <= 0 || v.value() > 1000) {
        return usage(1, argv[i]);
      }
      scale = v.value();
      continue;
    }
    if (positional > 4) return usage(0, argv[i]);
    // Integer knobs are parsed as integers: "2.7 clients" is garbage, not 2.
    const auto v = core::ParseInt(argv[i]);
    if (!v.ok() || v.value() < 1 || v.value() > 1024) {
      return usage(positional, argv[i]);
    }
    if (positional == 2) clients = v.value();
    if (positional == 3) frames_per_client = v.value();
    if (positional == 4) batch = v.value();
  }

  // ---- model: build once from a synthetic KIEL feed, snapshot, serve.
  std::printf("preparing KIEL (scale %.2f)...\n", scale);
  eval::ExperimentOptions exp_options;
  exp_options.scale = scale;
  auto exp = eval::PrepareExperiment("KIEL", exp_options);
  if (!exp.ok()) return Fail(exp.status());
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "bench_serve.snap").string();
  {
    auto built = api::MakeModel("habit:r=9,save=" + snapshot_path,
                                exp.value().train_trips);
    if (!built.ok()) return Fail(built.status());
  }
  const std::string load_spec = "habit:load=" + snapshot_path;
  const std::vector<api::ImputeRequest> gap_requests =
      eval::GapRequests(exp.value());
  if (gap_requests.empty()) return Fail(Status::Internal("no gap cases"));

  // The per-frame batches every client cycles through.
  std::vector<api::ImputeRequest> frame(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    frame[static_cast<size_t>(i)] =
        gap_requests[static_cast<size_t>(i) % gap_requests.size()];
  }
  const uint64_t total_queries = static_cast<uint64_t>(clients) *
                                 static_cast<uint64_t>(frames_per_client) *
                                 static_cast<uint64_t>(batch);

  // ---- server: TCP on an ephemeral port, hardware-sized worker pool.
  server::ServerOptions options;
  options.max_batch = static_cast<size_t>(batch);
  server::Server server(options);

  // ---- in-process reference: the same total workload on one model with
  // as many batch workers as the server's pool, after one untimed pass.
  const int inproc_threads = server.workers();
  auto inproc = api::MakeModel(
      load_spec + ",threads=" + std::to_string(inproc_threads), {});
  if (!inproc.ok()) return Fail(inproc.status());
  (void)inproc.value()->ImputeBatch(frame);
  Stopwatch inproc_timer;
  for (int f = 0; f < clients * frames_per_client; ++f) {
    const auto responses = inproc.value()->ImputeBatch(frame);
    if (responses.size() != frame.size()) {
      return Fail(Status::Internal("short batch"));
    }
  }
  const double inproc_seconds = inproc_timer.ElapsedSeconds();
  const double inproc_qps =
      static_cast<double>(total_queries) / inproc_seconds;

  {
    auto spec = api::MethodSpec::Parse(load_spec);
    if (!spec.ok()) return Fail(spec.status());
    auto warm = server.Resolve(spec.value());  // pay the cold load up front
    if (!warm.ok()) return Fail(warm.status());
  }
  const Status listen = server.Listen(0);
  if (!listen.ok()) return Fail(listen);
  std::thread serve_thread([&server] { (void)server.Serve(); });

  // ---- the idle fleet: connected, silent, and never a thread. Parked
  // before the timed run so the loop carries their registrations the
  // whole time. Two fds per connection — both endpoints are ours.
  if (idle_count > 0) {
    rlimit limit{};
    if (getrlimit(RLIMIT_NOFILE, &limit) == 0) {
      const rlim_t want = static_cast<rlim_t>(2 * idle_count + 512);
      if (limit.rlim_cur < want) {
        limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, want);
        (void)setrlimit(RLIMIT_NOFILE, &limit);
      }
      const rlim_t budget =
          limit.rlim_cur > 512 ? (limit.rlim_cur - 512) / 2 : 0;
      if (static_cast<rlim_t>(idle_count) > budget) {
        std::fprintf(stderr,
                     "note: fd limit %llu caps --idle %lld at %llu\n",
                     static_cast<unsigned long long>(limit.rlim_cur),
                     static_cast<long long>(idle_count),
                     static_cast<unsigned long long>(budget));
        idle_count = static_cast<int64_t>(budget);
      }
    }
  }
  std::vector<std::unique_ptr<server::LineClient>> idle;
  idle.reserve(static_cast<size_t>(idle_count));
  for (int64_t i = 0; i < idle_count; ++i) {
    auto parked = std::make_unique<server::LineClient>(server.bound_port());
    if (!parked->connected()) {
      return Fail(Status::Internal("idle connection " + std::to_string(i) +
                                   " failed to connect"));
    }
    idle.push_back(std::move(parked));
  }

  const std::string frame_line =
      server::EncodeImputeBatchRequest(load_spec, frame);
  // The binary path encodes the frame once and reuses it — the measured
  // row is wire + decode + dispatch, with no per-call client JSON work.
  std::string frame_bytes;
  if (binary) {
    auto parsed = server::ParseRequest(frame_line,
                                       static_cast<size_t>(batch));
    if (!parsed.ok()) return Fail(parsed.status());
    frame_bytes = server::frame::EncodeRequestFrame(parsed.value());
  }
  std::vector<std::vector<double>> frame_seconds(
      static_cast<size_t>(clients));
  // vector<char>, not vector<bool>: clients write their slot concurrently
  // and vector<bool> packs flags into shared bytes (a data race).
  std::vector<char> client_ok(static_cast<size_t>(clients), 0);
  Stopwatch wall;
  std::vector<std::thread> client_threads;
  client_threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      server::ClientOptions client_options;
      client_options.binary = binary;
      server::LineClient client(server.bound_port(), client_options);
      if (!client.connected()) return;
      if (binary) {
        for (int f = 0; f < frames_per_client; ++f) {
          Stopwatch frame_timer;
          server::frame::FrameResponse response;
          if (!client.CallBinary(frame_bytes, &response)) return;
          frame_seconds[static_cast<size_t>(c)].push_back(
              frame_timer.ElapsedSeconds());
          // tag=results is the binary frame-level ok; per-query failures
          // ride inside results, same as the JSON "results" member.
          if (response.tag != server::frame::ResponseTag::kResults ||
              response.results.size() != frame.size()) {
            return;
          }
        }
      } else {
        std::string response;
        for (int f = 0; f < frames_per_client; ++f) {
          Stopwatch frame_timer;
          if (!client.Call(frame_line, &response)) return;
          frame_seconds[static_cast<size_t>(c)].push_back(
              frame_timer.ElapsedSeconds());
          // Every frame-level response must be ok:true (per-query failures
          // embed inside "results"; a frame error means the bench is
          // broken).
          if (response.rfind("{\"ok\":true", 0) != 0) return;
        }
      }
      client_ok[static_cast<size_t>(c)] = 1;
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double serve_seconds = wall.ElapsedSeconds();
  server.Shutdown();
  serve_thread.join();

  std::vector<double> all_frames;
  for (int c = 0; c < clients; ++c) {
    if (!client_ok[static_cast<size_t>(c)]) {
      return Fail(Status::Internal("client " + std::to_string(c) +
                                   " failed mid-run"));
    }
    all_frames.insert(all_frames.end(),
                      frame_seconds[static_cast<size_t>(c)].begin(),
                      frame_seconds[static_cast<size_t>(c)].end());
  }
  const double serve_qps = static_cast<double>(total_queries) / serve_seconds;
  const double p50_ms = Percentile(all_frames, 0.50) * 1e3;
  const double p99_ms = Percentile(all_frames, 0.99) * 1e3;

  std::printf(
      "served %llu queries (%d clients x %d frames x batch %d, %s, "
      "%lld idle) in %.2fs over TCP: %.0f q/s (in-process %.0f q/s at "
      "threads=%d, overhead x%.2f)\n"
      "frame latency p50 %.2f ms, p99 %.2f ms (batch of %d)\n",
      static_cast<unsigned long long>(total_queries), clients,
      frames_per_client, batch, binary ? "binary" : "json",
      static_cast<long long>(idle_count), serve_seconds, serve_qps,
      inproc_qps, inproc_threads, inproc_qps / serve_qps, p50_ms, p99_ms,
      batch);
  const api::ModelCache::Stats stats = server.cache().stats();
  std::printf("cache: %llu hits, %llu misses, %llu coalesced\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.coalesced));

  std::printf(
      "BENCH_METRIC {\"metric\":\"serve_qps\",\"dataset\":\"KIEL\","
      "\"scale\":%.3f,\"clients\":%d,\"batch\":%d,\"workers\":%d,"
      "\"mode\":\"%s\",\"idle\":%lld,"
      "\"serve_qps\":%.1f,\"inproc_qps\":%.1f,\"inproc_threads\":%d,"
      "\"frame_p50_ms\":%.3f,\"frame_p99_ms\":%.3f}\n",
      scale, clients, batch, server.workers(),
      binary ? "binary" : "json", static_cast<long long>(idle_count),
      serve_qps, inproc_qps, inproc_threads, p50_ms, p99_ms);

  std::remove(snapshot_path.c_str());
  return 0;
}
