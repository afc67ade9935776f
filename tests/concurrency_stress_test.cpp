// Concurrency stress tests, written to run under ThreadSanitizer (the CI
// tsan job executes this whole binary with -fsanitize=thread): every
// scenario drives real thread interleavings through the server, cache,
// router, and worker-pool paths that production traffic exercises —
// pipelined clients against one Server, cold-miss storms where eviction
// races in-flight builds, router fan-out over a flapping backend, and
// WorkerPool lifecycle edges (submit during shutdown, throwing tasks,
// destruction draining queued work). Assertions here are deliberately
// coarse (counts, protocol shape, no deadlock) — the sharp tool is TSan
// reporting zero races across all of it.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/model_cache.h"
#include "api/registry.h"
#include "router/backend.h"
#include "router/manifest.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/frame.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace habit {
namespace {

using server::Json;

// Same dense-lane fixture as model_cache_test / server_test: 6 trips x 90
// points, enough for small HABIT builds that actually traverse the graph.
std::vector<ais::Trip> MakeTrips(int points_per_trip = 90) {
  std::vector<ais::Trip> trips;
  for (int t = 0; t < 6; ++t) {
    ais::Trip trip;
    trip.trip_id = t + 1;
    trip.mmsi = 100 + t;
    trip.type = ais::VesselType::kPassenger;
    for (int i = 0; i < points_per_trip; ++i) {
      ais::AisRecord r;
      r.mmsi = trip.mmsi;
      r.ts = 1000000 + i * 60;
      r.pos = {55.0 + i * 0.003, 11.0 + 0.0004 * (t % 3)};
      r.sog = 12.0;
      r.type = trip.type;
      trip.points.push_back(r);
    }
    trips.push_back(trip);
  }
  return trips;
}

api::ImputeRequest LaneRequest(double offset = 0.0) {
  api::ImputeRequest req;
  req.gap_start = {55.03 + offset, 11.0};
  req.gap_end = {55.2 - offset, 11.0};
  req.t_start = 1000000;
  req.t_end = 1003600;
  return req;
}

Json MustParse(const std::string& line) {
  auto parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  return parsed.ok() ? parsed.MoveValue() : Json();
}

std::string TmpPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------------- WorkerPool

TEST(WorkerPoolStressTest, RunAllAfterShutdownFailsCleanly) {
  server::WorkerPool pool(2);
  pool.Shutdown();
  std::atomic<int> ran{0};
  const Status status = pool.RunAll({[&] { ran.fetch_add(1); }});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shut down"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(ran.load(), 0);
}

TEST(WorkerPoolStressTest, ShutdownIsIdempotentAndConcurrent) {
  server::WorkerPool pool(4);
  std::vector<std::thread> closers;
  for (int i = 0; i < 8; ++i) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (std::thread& t : closers) t.join();
  pool.Shutdown();  // and once more after everyone
  EXPECT_FALSE(pool.RunAll({[] {}}).ok());
}

TEST(WorkerPoolStressTest, ThrowingTaskReportsButDoesNotWedgeThePool) {
  server::WorkerPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("boom in task 3");
    });
  }
  const Status status = pool.RunAll(std::move(tasks));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("boom in task 3"), std::string::npos)
      << status.ToString();
  // The exception was contained: every task still ran, the worker
  // survived, and the pool keeps serving.
  EXPECT_EQ(ran.load(), 8);
  std::atomic<int> after{0};
  EXPECT_TRUE(pool.RunAll({[&after] { after.fetch_add(1); },
                           [&after] { after.fetch_add(1); }})
                  .ok());
  EXPECT_EQ(after.load(), 2);
}

TEST(WorkerPoolStressTest, DestructionDrainsTasksARunAllCallerWaitsOn) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 16;
  {
    server::WorkerPool pool(2);
    std::thread submitter([&pool, &ran] {
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < kTasks; ++i) {
        tasks.push_back([&ran] { ran.fetch_add(1); });
      }
      // Either the whole batch ran, or shutdown won the race and none did
      // — a partial batch would mean destruction abandoned queued work.
      const Status status = pool.RunAll(std::move(tasks));
      EXPECT_TRUE(status.ok() || ran.load() == 0) << status.ToString();
    });
    submitter.join();
  }  // ~WorkerPool
  EXPECT_TRUE(ran.load() == 0 || ran.load() == kTasks) << ran.load();
}

TEST(WorkerPoolStressTest, SubmittersRacingShutdownNeverDeadlockOrTear) {
  server::WorkerPool pool(3);
  std::atomic<int> ran{0};
  std::atomic<int> ok_batches{0};
  std::atomic<int> rejected_batches{0};
  constexpr int kSubmitters = 6;
  constexpr int kBatches = 20;
  constexpr int kTasksPerBatch = 4;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < kTasksPerBatch; ++i) {
          tasks.push_back([&ran] { ran.fetch_add(1); });
        }
        if (pool.RunAll(std::move(tasks)).ok()) {
          ok_batches.fetch_add(1);
        } else {
          rejected_batches.fetch_add(1);
        }
      }
    });
  }
  // Let some batches through, then slam the door mid-traffic.
  while (ok_batches.load() == 0 && rejected_batches.load() == 0) {
    std::this_thread::yield();
  }
  pool.Shutdown();
  for (std::thread& t : submitters) t.join();
  // Every batch either fully ran (counted ok) or was cleanly rejected;
  // the totals must reconcile exactly — no torn batches, no lost tasks.
  EXPECT_EQ(ok_batches.load() + rejected_batches.load(),
            kSubmitters * kBatches);
  EXPECT_EQ(ran.load(), ok_batches.load() * kTasksPerBatch);
}

TEST(WorkerPoolStressTest, ImputeBatchesRacingShutdownAnswerWholeOrFailWhole) {
  // Batches whose workers come from the pool, racing its shutdown: each
  // batch either runs whole (every answer equals the serial one) or the
  // pool refuses it and every request carries that error — never a batch
  // half answered and half "not processed".
  auto model = api::MakeModel("habit:r=8", MakeTrips());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(LaneRequest(0.002 * (i % 16)));
  }
  const auto serial = model.value()->ImputeBatch(requests);

  server::WorkerPool pool(3);
  const api::ImputationModel::WorkerSource source =
      [&pool](size_t workers, const std::function<void()>& body) {
        return pool.RunAll(std::vector<std::function<void()>>(
            std::min<size_t>(workers, 3), body));
      };
  std::atomic<int> whole{0};
  std::atomic<int> refused{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int b = 0; b < 10; ++b) {
        const auto got = model.value()->ImputeBatch(requests, nullptr, source);
        size_t same = 0, failed = 0;
        for (size_t i = 0; i < got.size(); ++i) {
          if (!got[i].ok()) {
            ++failed;
          } else if (got[i].value().path == serial[i].value().path) {
            ++same;
          }
        }
        if (same == requests.size()) {
          whole.fetch_add(1);
        } else if (failed == requests.size()) {
          refused.fetch_add(1);
        } else {
          torn.fetch_add(1);
        }
      }
    });
  }
  while (whole.load() == 0 && refused.load() == 0) std::this_thread::yield();
  pool.Shutdown();
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(whole.load() + refused.load(), 40);
  EXPECT_GT(whole.load(), 0);
}

// ------------------------------------------------------------- ModelCache

TEST(ModelCacheStressTest, ColdMissStormWithEvictionRacingInFlightBuilds) {
  const auto trips = MakeTrips();
  // Budget fits roughly one model, so concurrent builds of three distinct
  // specs constantly evict each other while other threads hold and query
  // the evicted handles — eviction racing in-flight use.
  auto probe = api::MakeModel("habit:r=8", trips);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  api::ModelCache cache(probe.value()->SizeBytes() + 1);

  const std::string specs[] = {"habit:r=7", "habit:r=8", "habit:r=9"};
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<char> thread_ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        auto model = cache.Get(specs[(t + round) % 3], trips);
        if (!model.ok()) return;
        // Query through the handle AFTER later rounds may have evicted
        // it — the shared_ptr contract keeps it alive and valid.
        if (!model.value()->Impute(LaneRequest()).ok()) return;
      }
      thread_ok[static_cast<size_t>(t)] = 1;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(thread_ok[static_cast<size_t>(t)]) << "thread " << t;
  }
  // Accounting reconciles: every Get was a hit, a fresh build, or a
  // coalesced join of someone else's build.
  const api::ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_LE(cache.SizeBytes(), cache.byte_budget());
}

// ----------------------------------------------------------------- Server

TEST(ServerStressTest, PipelinedClientsOverServeStreamStayCoherent) {
  const std::string snapshot = TmpPath("concurrency_stress_serve.snap");
  ASSERT_TRUE(api::MakeModel("habit:r=8,save=" + snapshot, MakeTrips()).ok());
  const std::string load_spec = "habit:load=" + snapshot;

  server::ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 3;
  options.max_batch = 64;
  server::Server server(options);

  // Each client pipelines a mixed frame sequence — batches, stats probes,
  // and a garbage line — through its own ServeStream; all streams share
  // the server's cache, stats, and worker pool.
  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(LaneRequest(0.002 * i));
  const std::string batch_line =
      server::EncodeImputeBatchRequest(load_spec, requests);
  constexpr int kClients = 6;
  constexpr int kFramesPerClient = 8;
  std::vector<std::string> outputs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::ostringstream in_text;
      for (int f = 0; f < kFramesPerClient; ++f) {
        in_text << batch_line << "\n";
        if (f % 3 == 1) in_text << "{\"op\":\"stats\"}\n";
        if (f % 4 == 2) in_text << "this is not json\n";
      }
      std::istringstream in(in_text.str());
      std::ostringstream out;
      server.ServeStream(in, out);
      outputs[static_cast<size_t>(c)] = out.str();
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    std::istringstream lines(outputs[static_cast<size_t>(c)]);
    std::string line;
    int ok_batches = 0;
    while (std::getline(lines, line)) {
      const Json frame = MustParse(line);  // never a malformed line
      const Json* ok = frame.Find("ok");
      ASSERT_NE(ok, nullptr) << line;
      if (ok->bool_value() && frame.Find("results") != nullptr) {
        EXPECT_EQ(frame.Find("results")->items().size(), requests.size());
        ++ok_batches;
      }
    }
    // Pipelining preserved every frame: all batches answered in order.
    EXPECT_EQ(ok_batches, kFramesPerClient) << "client " << c;
  }
  const api::ModelCache::Stats stats = server.cache().stats();
  EXPECT_EQ(stats.misses, 1u);  // one cold load across the whole storm
  std::remove(snapshot.c_str());
}

TEST(ServerStressTest, PipelinedBatchFramesRacingShutdownNeverHang) {
  // Several connections, JSON and binary, each pipeline 32-gap frames
  // while another thread shuts the server down. Every frame is answered
  // whole (the in-process bytes, or one error per request) or not at
  // all, because shutdown closed its connection; no client read and no
  // serve loop hangs.
  const std::string snapshot = TmpPath("concurrency_stress_claim.snap");
  ASSERT_TRUE(api::MakeModel("habit:r=8,save=" + snapshot, MakeTrips()).ok());
  const std::string load_spec = "habit:load=" + snapshot;
  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(LaneRequest(0.002 * (i % 16)));
  }
  auto model = api::MakeModel(load_spec, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::string expected = server::BatchResponseLine(
      model.value()->ImputeBatch(requests), Json());
  const std::string line =
      server::EncodeImputeBatchRequest(load_spec, requests);
  auto parsed = server::ParseRequest(line, requests.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string frame_bytes =
      server::frame::EncodeRequestFrame(parsed.value());

  server::ServerOptions options;
  options.threads = 4;
  options.max_batch = 64;
  server::Server server(options);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  const auto whole = [&](const std::string& response) {
    if (response == expected) return true;
    const Json frame = MustParse(response);
    const Json* results = frame.Find("results");
    if (results == nullptr || results->items().size() != requests.size()) {
      return false;
    }
    for (const Json& result : results->items()) {
      const Json* ok = result.Find("ok");
      if (ok == nullptr || ok->bool_value()) return false;
    }
    return true;
  };
  constexpr int kClients = 4;
  constexpr int kFrames = 12;
  std::atomic<int> answered{0};
  std::vector<int> partial(kClients, 0);
  std::vector<std::string> last_error(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::ClientOptions client_options;
      client_options.connect_timeout_ms = 10000;
      client_options.io_timeout_ms = 30000;  // a hang fails, never wedges
      client_options.binary = (c % 2 == 1);
      server::LineClient client(server.bound_port(), client_options);
      if (!client.connected()) return;  // shutdown won the race
      std::string pipelined;
      for (int f = 0; f < kFrames; ++f) {
        pipelined += client.binary() ? frame_bytes : line + "\n";
      }
      if (!client.SendRaw(pipelined)) return;
      for (int f = 0; f < kFrames; ++f) {
        std::string response;
        if (client.binary()) {
          std::string payload;
          if (!client.ReadFrame(&payload)) break;
          auto decoded = server::frame::DecodeResponsePayload(payload);
          if (!decoded.ok()) break;
          response = server::frame::ResponseToJsonLine(decoded.value());
        } else if (!client.ReadLine(&response)) {
          break;
        }
        if (!whole(response)) ++partial[static_cast<size_t>(c)];
        answered.fetch_add(1);
      }
      last_error[static_cast<size_t>(c)] = client.last_error();
    });
  }
  std::atomic<bool> clients_done{false};
  std::thread closer([&] {
    while (answered.load() < kClients && !clients_done.load()) {
      std::this_thread::yield();
    }
    server.Shutdown();
  });
  for (std::thread& t : clients) t.join();
  clients_done.store(true);
  closer.join();
  serve_thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(partial[static_cast<size_t>(c)], 0) << "client " << c;
    EXPECT_NE(last_error[static_cast<size_t>(c)], "read timed out")
        << "client " << c;
  }
  EXPECT_GE(answered.load(), kClients);
  std::remove(snapshot.c_str());
}

TEST(ServerStressTest, ManyIdleConnectionsPlusActiveClientsSoak) {
  // The ingest-traffic shape the epoll transport exists for: thousands of
  // connected-but-idle sockets (each costs one fd and a small struct —
  // never a thread) while a band of active clients hammers mixed JSON and
  // binary traffic. Under TSan this drives the loop/worker completion
  // handoff, the negotiation path, and shutdown with a full house.
  rlimit limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &limit), 0);
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, 24576);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &limit), 0);
  // Both endpoints live in this process: every idle connection costs two
  // fds (the client socket and the accepted server socket), plus slack
  // for the active band, the snapshot, and the suite's own fds.
  const size_t idle_target =
      limit.rlim_cur > 800
          ? std::min<size_t>((limit.rlim_cur - 600) / 2, 10000)
          : 100;

  const std::string snapshot = TmpPath("concurrency_stress_soak.snap");
  ASSERT_TRUE(api::MakeModel("habit:r=8,save=" + snapshot, MakeTrips()).ok());
  const std::string load_spec = "habit:load=" + snapshot;

  server::ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 4;
  options.max_batch = 64;
  server::Server server(options);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  // Park the idle fleet. Some park mid-frame (a partial binary header)
  // so shutdown also covers half-negotiated connections.
  server::ClientOptions idle_options;
  idle_options.connect_timeout_ms = 10000;
  idle_options.io_timeout_ms = 30000;  // a hang here should fail, not wedge
  std::vector<std::unique_ptr<server::LineClient>> idle;
  idle.reserve(idle_target);
  for (size_t i = 0; i < idle_target; ++i) {
    auto client = std::make_unique<server::LineClient>(server.bound_port(),
                                                       idle_options);
    if (!client->connected()) break;  // fd budget tighter than probed
    if (i % 1000 == 0) ASSERT_TRUE(client->SendRaw("HB"));
    idle.push_back(std::move(client));
  }
  ASSERT_GE(idle.size(), idle_target / 2) << "could not park idle fleet";

  // The active band: 64 clients, mixed protocols, real deadlines — an
  // idle-swamped server must still answer promptly.
  const std::string line = server::EncodeImputeRequest(load_spec,
                                                       LaneRequest());
  constexpr int kActive = 64;
  constexpr int kCallsPerClient = 6;
  std::vector<char> ok(kActive, 0);
  std::vector<std::thread> active;
  for (int c = 0; c < kActive; ++c) {
    active.emplace_back([&, c] {
      server::ClientOptions client_options;
      client_options.connect_timeout_ms = 10000;
      client_options.io_timeout_ms = 30000;
      client_options.binary = (c % 2 == 0);
      server::LineClient client(server.bound_port(), client_options);
      if (!client.connected()) return;
      std::string first;
      if (!client.Call(line, &first) || first.empty()) return;
      for (int k = 1; k < kCallsPerClient; ++k) {
        std::string again;
        if (!client.Call(line, &again) || again != first) return;
      }
      ok[static_cast<size_t>(c)] = 1;
    });
  }
  for (std::thread& t : active) t.join();
  for (int c = 0; c < kActive; ++c) {
    EXPECT_TRUE(ok[static_cast<size_t>(c)]) << "active client " << c;
  }

  // Shutdown with the idle fleet still parked: every fd closes, the loop
  // drains, Serve returns OK.
  server.Shutdown();
  serve_thread.join();
  for (auto& client : idle) {
    std::string discard;
    EXPECT_FALSE(client->ReadLine(&discard));
  }
  std::remove(snapshot.c_str());
}

TEST(ServerStressTest, IngestAndRolloverRacingPipelinedImputeClients) {
  // The live-ingest shape: impute clients hammer the epoch-routed spec
  // over real sockets while ingest writers stage deltas and a rollover
  // thread forces epoch swaps mid-traffic. Coarse assertions (every
  // frame answered, acks well-formed, final accounting reconciles);
  // TSan owns the race verdict, and epoch_test owns byte-identity.
  server::ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 3;
  server::Server server(options);
  api::EpochPipeline::Options ingest_options;
  ingest_options.spec = "habit:r=8";
  ASSERT_TRUE(server.EnableIngest(ingest_options, MakeTrips()).ok());
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  server::ClientOptions client_options;
  client_options.connect_timeout_ms = 10000;
  client_options.io_timeout_ms = 60000;  // rollover acks wait on rebuilds

  // Ingest writers: disjoint trip-id ranges on the same lane, so every
  // batch validates no matter how the writers interleave.
  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 6;
  constexpr int kTripsPerBatch = 2;
  std::vector<char> writer_ok(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      server::LineClient client(server.bound_port(), client_options);
      if (!client.connected()) return;
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<ais::Trip> batch = MakeTrips();
        batch.resize(kTripsPerBatch);
        for (int t = 0; t < kTripsPerBatch; ++t) {
          const int64_t id = 1000 + (w * kBatchesPerWriter + b) *
                                        kTripsPerBatch + t;
          batch[static_cast<size_t>(t)].trip_id = id;
          batch[static_cast<size_t>(t)].mmsi = 219000000 + id;
          for (ais::AisRecord& r : batch[static_cast<size_t>(t)].points) {
            r.mmsi = batch[static_cast<size_t>(t)].mmsi;
          }
        }
        std::string reply;
        if (!client.Call(server::EncodeIngestRequest(batch), &reply)) return;
        const Json ack = MustParse(reply);
        const Json* ok = ack.Find("ok");
        if (ok == nullptr || !ok->bool_value()) return;
        if (ack.Find("accepted")->number_value() != kTripsPerBatch) return;
      }
      writer_ok[static_cast<size_t>(w)] = 1;
    });
  }

  // The rollover thread forces swaps while writers and readers run; acked
  // epochs must be non-decreasing (coalesced rollovers may repeat one).
  std::atomic<bool> rollover_ok{false};
  std::thread rollover([&] {
    server::LineClient client(server.bound_port(), client_options);
    if (!client.connected()) return;
    double last_epoch = 0;
    for (int r = 0; r < 4; ++r) {
      std::string reply;
      if (!client.Call(server::EncodeRolloverRequest(), &reply)) return;
      const Json ack = MustParse(reply);
      const Json* ok = ack.Find("ok");
      if (ok == nullptr || !ok->bool_value()) return;
      const double epoch = ack.Find("epoch")->number_value();
      if (epoch < last_epoch) return;
      last_epoch = epoch;
    }
    rollover_ok.store(true);
  });

  // Impute readers on the epoch-routed spec (no load=): every answer
  // comes from whichever epoch the request resolved, never a torn one.
  const std::string impute_line =
      server::EncodeImputeRequest("habit:r=8", LaneRequest());
  constexpr int kReaders = 4;
  constexpr int kCallsPerReader = 10;
  std::vector<char> reader_ok(kReaders, 0);
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      server::ClientOptions reader_options = client_options;
      reader_options.binary = (c % 2 == 0);
      server::LineClient client(server.bound_port(), reader_options);
      if (!client.connected()) return;
      for (int k = 0; k < kCallsPerReader; ++k) {
        std::string reply;
        if (!client.Call(impute_line, &reply)) return;
        const Json frame = MustParse(reply);
        const Json* ok = frame.Find("ok");
        if (ok == nullptr || !ok->bool_value()) return;
      }
      reader_ok[static_cast<size_t>(c)] = 1;
    });
  }

  for (std::thread& t : writers) t.join();
  rollover.join();
  for (std::thread& t : readers) t.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(writer_ok[static_cast<size_t>(w)]) << "writer " << w;
  }
  EXPECT_TRUE(rollover_ok.load());
  for (int c = 0; c < kReaders; ++c) {
    EXPECT_TRUE(reader_ok[static_cast<size_t>(c)]) << "reader " << c;
  }

  // Quiesce: one final rollover folds any remaining backlog, and the
  // stats accounting must reconcile with exactly what the writers sent.
  {
    server::LineClient client(server.bound_port(), client_options);
    ASSERT_TRUE(client.connected());
    std::string reply;
    ASSERT_TRUE(client.Call(server::EncodeRolloverRequest(), &reply));
    ASSERT_TRUE(MustParse(reply).Find("ok")->bool_value()) << reply;
    ASSERT_TRUE(client.Call("{\"op\":\"stats\"}", &reply));
    const Json stats = MustParse(reply);
    const Json* epoch = stats.Find("epoch");
    ASSERT_NE(epoch, nullptr) << reply;
    constexpr double kDeltaTrips =
        kWriters * kBatchesPerWriter * kTripsPerBatch;
    EXPECT_EQ(epoch->Find("ingested_trips")->number_value(), kDeltaTrips);
    EXPECT_EQ(epoch->Find("pending_trips")->number_value(), 0.0);
    EXPECT_EQ(epoch->Find("epoch_trips")->number_value(),
              kDeltaTrips + 6);  // the base fixture's six trips
    EXPECT_GE(epoch->Find("epoch")->number_value(), 1.0);
  }

  server.Shutdown();
  serve_thread.join();
}

// ----------------------------------------------------------------- Router

// Wraps a working backend and fails every other call at the transport
// level — the flapping-backend scenario the retry-then-degrade path
// exists for.
class FlakyBackend : public router::ShardBackend {
 public:
  explicit FlakyBackend(std::shared_ptr<router::ShardBackend> inner)
      : inner_(std::move(inner)) {}

  Result<std::string> Call(const std::string& line) override {
    if (calls_.fetch_add(1) % 2 == 0) {
      return Status::Unreachable("flaky backend dropped the call");
    }
    return inner_->Call(line);
  }
  std::string Describe() const override { return "flaky"; }

 private:
  std::shared_ptr<router::ShardBackend> inner_;
  std::atomic<uint64_t> calls_{0};
};

TEST(RouterStressTest, FanOutOverAFlappingBackendAnswersEveryRequest) {
  const std::string dir = TmpPath("concurrency_stress_shards");
  std::filesystem::remove_all(dir);
  router::ShardBuildOptions build;
  build.parent_res = 6;
  build.halo_k = 1;
  build.spec = "habit:r=8";
  build.out_dir = dir;
  // The longer lane from router_test: 180 points cross several res-6
  // parents, so the manifest is genuinely multi-shard.
  auto manifest = router::BuildShards(MakeTrips(180), build);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_GE(manifest.value().shards.size(), 2u);

  server::ServerOptions server_options;
  server_options.cache_bytes = 1ull << 30;
  server_options.threads = 2;
  server::Server backend_server(server_options);
  auto solid =
      std::make_shared<router::LocalBackend>(&backend_server);
  // Backend 0 (serving shard 0, 2, ...) flaps; the last backend — which
  // Make() designates the fallback — stays solid, so every degraded
  // sub-frame has somewhere to go.
  auto router = router::Router::Make(
      manifest.MoveValue(), dir,
      {std::make_shared<FlakyBackend>(solid), solid});
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Gaps spread along the lane: some route in-shard, some halo, some
  // fallback — concurrent frames exercise the fan-out threads and the
  // shared stats under contention.
  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 6; ++i) {
    api::ImputeRequest req;
    req.gap_start = {55.0 + i * 0.08, 11.0};
    req.gap_end = {55.03 + i * 0.08, 11.0};
    req.t_start = 1000000;
    req.t_end = 1003600;
    req.vessel_id = 219000100 + i;
    requests.push_back(req);
  }
  // Empty model string: the encoder omits the field, which is exactly
  // what the router requires (it picks the model per shard).
  const std::string frame_line =
      server::EncodeImputeBatchRequest("", requests);

  constexpr int kClients = 6;
  constexpr int kFramesPerClient = 5;
  std::vector<char> client_ok(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int f = 0; f < kFramesPerClient; ++f) {
        const Json frame =
            MustParse(router.value()->HandleLine(frame_line));
        const Json* ok = frame.Find("ok");
        if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) return;
        const Json* results = frame.Find("results");
        const Json* routes = frame.Find("routes");
        if (results == nullptr ||
            results->items().size() != requests.size()) {
          return;
        }
        if (routes == nullptr ||
            routes->items().size() != requests.size()) {
          return;
        }
        for (const Json& route : routes->items()) {
          const std::string& r = route.string_value();
          if (r != "shard" && r != "halo" && r != "fallback" &&
              r != "degraded" && r != "unavailable") {
            return;
          }
        }
      }
      client_ok[static_cast<size_t>(c)] = 1;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(client_ok[static_cast<size_t>(c)]) << "client " << c;
  }

  // The stats frame reads the shard rows the fan-out threads wrote; the
  // totals reconcile with the traffic sent.
  const Json stats = MustParse(router.value()->HandleLine(
      "{\"op\":\"stats\"}"));
  ASSERT_NE(stats.Find("frames"), nullptr);
  EXPECT_EQ(stats.Find("frames")->number_value(),
            static_cast<double>(kClients * kFramesPerClient + 1));
  ASSERT_NE(stats.Find("shards"), nullptr);
  double shard_requests = 0;
  for (const Json& shard : stats.Find("shards")->items()) {
    shard_requests += shard.Find("requests")->number_value();
  }
  // Degraded sub-frames are counted on BOTH the planned shard and the
  // fallback, so the sum is at least the request volume.
  EXPECT_GE(shard_requests,
            static_cast<double>(kClients * kFramesPerClient *
                                requests.size()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace habit
