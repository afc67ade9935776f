// Framing-layer tests for the binary wire protocol and the epoll
// transport: negotiation by first bytes, frames fragmented across reads,
// pipelined mixed binary + invalid frames, the oversized-frame rule
// (answered exactly once, then close), slow-reader write backpressure,
// deterministic shutdown with idle connections parked, pipelined
// responses that do not wait on delayed ACKs (TCP_NODELAY), and the
// JSON<->binary equivalence contract — the same request line answered
// over both protocols yields byte-identical response lines (and numerics
// matching to 1e-12).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"

namespace habit::server {
namespace {

// ----------------------------------------------------------------- fixtures

std::string MakeRawFrame(std::string_view payload) {
  std::string out;
  const uint32_t magic = frame::kMagic;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(payload);
  return out;
}

// A transport with trivial echo hooks — the framing layer in isolation,
// no Server behind it. Binary frames echo "bin:<payload>", JSON lines
// echo "json:<line>", framing errors echo "err:<message>".
struct EchoTransport {
  explicit EchoTransport(size_t max_line_bytes, bool binary = true,
                         std::string json_reply_padding = "")
      : transport(max_line_bytes, MakeHooks(binary, json_reply_padding)) {
    EXPECT_TRUE(transport.Listen(0).ok());
    serve_thread = std::thread(
        [this] { EXPECT_TRUE(transport.Serve().ok()); });
  }
  ~EchoTransport() {
    transport.Shutdown();
    serve_thread.join();
  }

  static TransportHooks MakeHooks(bool binary, std::string padding) {
    TransportHooks hooks;
    hooks.handle = [padding](std::string_view line) {
      return "json:" + std::string(line) + padding;
    };
    if (binary) {
      hooks.handle_frame = [](std::string_view payload) {
        return MakeRawFrame("bin:" + std::string(payload));
      };
    }
    hooks.oversize = [] { return std::string("oversize"); };
    hooks.frame_error = [](const Status& error) {
      return MakeRawFrame("err:" + error.message());
    };
    return hooks;
  }

  uint16_t port() { return transport.bound_port(); }

  LineTransport transport;
  std::thread serve_thread;
};

// Same dense-lane fixture as server_test: a shared on-disk snapshot the
// equivalence tests serve.
std::vector<ais::Trip> MakeTrips() {
  std::vector<ais::Trip> trips;
  for (int t = 0; t < 6; ++t) {
    ais::Trip trip;
    trip.trip_id = t + 1;
    trip.mmsi = 100 + t;
    trip.type = ais::VesselType::kPassenger;
    for (int i = 0; i < 90; ++i) {
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

class TransportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snapshot_path_ = new std::string(
        (std::filesystem::temp_directory_path() / "transport_test.snap")
            .string());
    auto model =
        api::MakeModel("habit:r=8,save=" + *snapshot_path_, MakeTrips());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    load_spec_ = new std::string("habit:load=" + *snapshot_path_);
  }
  static void TearDownTestSuite() {
    std::remove(snapshot_path_->c_str());
    delete snapshot_path_;
    delete load_spec_;
    snapshot_path_ = nullptr;
    load_spec_ = nullptr;
  }

  static std::string* snapshot_path_;
  static std::string* load_spec_;
};

std::string* TransportTest::snapshot_path_ = nullptr;
std::string* TransportTest::load_spec_ = nullptr;

ServerOptions SmallOptions() {
  ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 4;
  options.max_batch = 64;
  options.max_line_bytes = 1 << 20;
  return options;
}

// ------------------------------------------------------------ framing layer

TEST(FramingTest, FragmentedFramesAcrossManySmallReads) {
  EchoTransport echo(1 << 20);
  LineClient client(echo.port());
  ASSERT_TRUE(client.connected());

  // Drip one frame a byte at a time — negotiation must hold its decision
  // until the full magic arrives, and the frame must only dispatch once
  // the declared payload is complete.
  const std::string frame_bytes = MakeRawFrame("hello");
  for (const char byte : frame_bytes) {
    ASSERT_TRUE(client.SendRaw(std::string(1, byte)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&payload)) << client.last_error();
  EXPECT_EQ(payload, "bin:hello");

  // And a second frame split awkwardly across the header boundary.
  const std::string second = MakeRawFrame("again");
  ASSERT_TRUE(client.SendRaw(second.substr(0, 6)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(client.SendRaw(second.substr(6)));
  ASSERT_TRUE(client.ReadFrame(&payload)) << client.last_error();
  EXPECT_EQ(payload, "bin:again");
}

TEST(FramingTest, PipelinedFramesThenBadMagicAnswersAllThenCloses) {
  EchoTransport echo(1 << 20);
  LineClient client(echo.port());
  ASSERT_TRUE(client.connected());

  // Two valid frames and then garbage, all in one write. Both valid
  // frames are answered in order; the bad magic gets a framing error and
  // the connection closes — a desynced binary stream is unrecoverable.
  ASSERT_TRUE(client.SendRaw(MakeRawFrame("one") + MakeRawFrame("two") +
                             "XXXXXXXXXXXX"));
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&payload)) << client.last_error();
  EXPECT_EQ(payload, "bin:one");
  ASSERT_TRUE(client.ReadFrame(&payload)) << client.last_error();
  EXPECT_EQ(payload, "bin:two");
  ASSERT_TRUE(client.ReadFrame(&payload)) << client.last_error();
  EXPECT_EQ(payload.find("err:"), 0u) << payload;
  EXPECT_NE(payload.find("magic"), std::string::npos) << payload;
  EXPECT_FALSE(client.ReadFrame(&payload));  // server hung up
  EXPECT_EQ(client.last_error(), "connection closed by peer");
}

TEST(FramingTest, OversizedDeclaredLengthAnsweredOnceAndClosed) {
  EchoTransport echo(/*max_line_bytes=*/1024);
  LineClient client(echo.port());
  ASSERT_TRUE(client.connected());

  // The binary analog of max_line_bytes: the declared length exceeds the
  // cap, so the error comes back BEFORE any payload is sent — the server
  // must reject on the header alone rather than buffer 1 MB.
  std::string header;
  const uint32_t magic = frame::kMagic;
  const uint32_t huge = 1 << 20;
  header.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  header.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_TRUE(client.SendRaw(header));
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&payload)) << client.last_error();
  EXPECT_EQ(payload.find("err:"), 0u) << payload;
  EXPECT_NE(payload.find("exceeds the limit"), std::string::npos);
  EXPECT_FALSE(client.ReadFrame(&payload));  // answered once, then close
}

TEST(FramingTest, SlowReaderGetsBackpressuredResponsesInOrder) {
  // Responses of ~1 MB against a client that is not reading: the socket
  // buffer fills, the loop parks the rest of the response for EPOLLOUT,
  // and stops reading the next pipelined request until it drains — the
  // transport buffers one response, not an unbounded queue.
  const std::string padding(1 << 20, 'x');
  EchoTransport echo(1 << 20, /*binary=*/true, padding);
  LineClient client(echo.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.SendRaw("a\nb\nc\n"));  // three pipelined JSON frames
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (const char* want : {"json:a", "json:b", "json:c"}) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << client.last_error();
    EXPECT_EQ(line, want + padding);
  }
}

TEST(FramingTest, BinaryProbeFallsBackToJsonAgainstLineOnlyServer) {
  // A transport with no handle_frame hook (the router frontend): the
  // binary negotiation probe is answered as one garbage JSON line, and
  // the client transparently falls back to JSON on the same connection.
  EchoTransport echo(1 << 20, /*binary=*/false);
  ClientOptions options;
  options.binary = true;
  LineClient client(echo.port(), options);
  ASSERT_TRUE(client.connected()) << client.last_error();
  EXPECT_FALSE(client.binary());
  std::string response;
  ASSERT_TRUE(client.Call("{\"op\":\"ping\"}", &response));
  EXPECT_EQ(response, "json:{\"op\":\"ping\"}");
}

TEST(FramingTest, ShutdownClosesIdleConnectionsDeterministically) {
  auto echo = std::make_unique<EchoTransport>(1 << 20);
  // Park idle connections (one mid-handshake with a partial frame) and
  // verify shutdown closes every fd and Serve() returns — no detached
  // threads, nothing to leak, destruction is bounded.
  std::vector<std::unique_ptr<LineClient>> idle;
  for (int i = 0; i < 8; ++i) {
    idle.push_back(std::make_unique<LineClient>(echo->port()));
    ASSERT_TRUE(idle.back()->connected());
  }
  ASSERT_TRUE(idle[0]->SendRaw(MakeRawFrame("full").substr(0, 5)));
  echo.reset();  // Shutdown + Serve() joined inside ~EchoTransport
  for (auto& client : idle) {
    std::string payload;
    EXPECT_FALSE(client->ReadFrame(&payload));  // peer closed
  }
}

TEST(FramingTest, RequestCodecRoundTripsStructuredRequests) {
  Request request;
  request.op = Request::Op::kImputeBatch;
  request.model = "habit:r=9";
  request.id = Json::String("batch-7");
  for (int i = 0; i < 3; ++i) {
    api::ImputeRequest req = LaneRequest(0.001 * i);
    if (i == 1) req.vessel_type = ais::VesselType::kTanker;
    if (i == 2) req.vessel_id = 219000123;
    request.requests.push_back(req);
  }
  const std::string encoded = frame::EncodeRequestFrame(request);
  auto decoded = frame::DecodeRequestPayload(
      std::string_view(encoded).substr(frame::kHeaderBytes), 64, true);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Request& got = decoded.value().request;
  EXPECT_EQ(got.op, Request::Op::kImputeBatch);
  EXPECT_EQ(got.model, "habit:r=9");
  EXPECT_EQ(got.id.string_value(), "batch-7");
  ASSERT_EQ(got.requests.size(), 3u);
  EXPECT_EQ(got.requests[0].gap_start, request.requests[0].gap_start);
  EXPECT_EQ(got.requests[1].vessel_type, ais::VesselType::kTanker);
  EXPECT_FALSE(got.requests[0].vessel_type.has_value());
  ASSERT_TRUE(got.requests[2].vessel_id.has_value());
  EXPECT_EQ(*got.requests[2].vessel_id, 219000123);
  EXPECT_FALSE(got.requests[0].vessel_id.has_value());
}

TEST(FramingTest, MalformedPayloadsRejectNeverCrash) {
  // Truncations at every byte boundary of a valid payload, plus targeted
  // corruptions — all must come back kInvalidArgument, never a crash or
  // an over-read.
  Request request;
  request.op = Request::Op::kImpute;
  request.model = "habit:r=8";
  request.requests.push_back(LaneRequest());
  const std::string encoded = frame::EncodeRequestFrame(request);
  const std::string_view payload =
      std::string_view(encoded).substr(frame::kHeaderBytes);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded =
        frame::DecodeRequestPayload(payload.substr(0, cut), 64, true);
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  // Unknown op tag.
  std::string bad(payload);
  bad[0] = 99;
  EXPECT_FALSE(frame::DecodeRequestPayload(bad, 64, true).ok());
  // Batch count exceeding max_batch is rejected before allocation.
  Request batch;
  batch.op = Request::Op::kImputeBatch;
  batch.model = "habit:r=8";
  batch.requests.assign(65, LaneRequest());
  const std::string batch_encoded = frame::EncodeRequestFrame(batch);
  auto too_big = frame::DecodeRequestPayload(
      std::string_view(batch_encoded).substr(frame::kHeaderBytes), 64,
      true);
  ASSERT_FALSE(too_big.ok());
  EXPECT_NE(too_big.status().message().find("exceeds the per-frame limit"),
            std::string::npos);
}

// ------------------------------------------------------- JSON equivalence

TEST_F(TransportTest, BinaryResponsesMatchJsonByteForByte) {
  Server server(SmallOptions());
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  ClientOptions binary_options;
  binary_options.binary = true;
  LineClient binary_client(server.bound_port(), binary_options);
  ASSERT_TRUE(binary_client.connected()) << binary_client.last_error();
  ASSERT_TRUE(binary_client.binary());
  LineClient json_client(server.bound_port());
  ASSERT_TRUE(json_client.connected());

  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 4; ++i) requests.push_back(LaneRequest(0.002 * i));
  // One unreachable query: error results must round-trip the frame codec
  // identically too.
  api::ImputeRequest offshore = LaneRequest();
  offshore.gap_start = {10.0, -140.0};
  offshore.gap_end = {11.0, -141.0};
  requests.push_back(offshore);
  requests[1].vessel_id = 219000777;
  requests[2].vessel_type = ais::VesselType::kCargo;

  const std::string lines[] = {
      "{\"op\":\"ping\",\"id\":\"x\"}",
      "{\"op\":\"ping\",\"id\":42.5}",
      "{\"op\":\"methods\"}",
      EncodeImputeRequest(*load_spec_, requests[0]),
      EncodeImputeBatchRequest(*load_spec_, requests),
      // Frame-level rejections: unknown spec, invalid query, and a line
      // that does not even parse (the op=json passthrough path).
      EncodeImputeRequest("warpdrive", LaneRequest()),
      "{\"op\":\"impute\",\"model\":\"habit\"}",
      "this is not json",
  };
  for (const std::string& line : lines) {
    std::string from_json;
    std::string from_binary;
    ASSERT_TRUE(json_client.Call(line, &from_json))
        << json_client.last_error();
    ASSERT_TRUE(binary_client.Call(line, &from_binary))
        << binary_client.last_error();
    EXPECT_EQ(from_binary, from_json) << line;
  }

  // The numeric contract behind the byte contract: path coordinates
  // decoded from the binary frame agree with the JSON-parsed values to
  // 1e-12 (they are in fact bit-exact — doubles travel as their bits).
  const std::string batch_line =
      EncodeImputeBatchRequest(*load_spec_, requests);
  std::string json_response;
  ASSERT_TRUE(json_client.Call(batch_line, &json_response));
  auto parsed = Json::Parse(json_response);
  ASSERT_TRUE(parsed.ok());
  auto request = ParseRequest(batch_line, 64);
  ASSERT_TRUE(request.ok());
  frame::FrameResponse decoded;
  ASSERT_TRUE(binary_client.CallBinary(
      frame::EncodeRequestFrame(request.value()), &decoded));
  ASSERT_EQ(decoded.tag, frame::ResponseTag::kResults);
  const auto& results_json = parsed.value().Find("results")->items();
  ASSERT_EQ(decoded.results.size(), results_json.size());
  for (size_t i = 0; i < decoded.results.size(); ++i) {
    if (!decoded.results[i].ok()) continue;
    const auto& path = decoded.results[i].value().path;
    const Json* path_json = results_json[i].Find("path");
    ASSERT_NE(path_json, nullptr);
    ASSERT_EQ(path.size(), path_json->items().size());
    for (size_t p = 0; p < path.size(); ++p) {
      EXPECT_NEAR(path[p].lat,
                  path_json->items()[p].items()[0].number_value(), 1e-12);
      EXPECT_NEAR(path[p].lng,
                  path_json->items()[p].items()[1].number_value(), 1e-12);
    }
  }

  server.Shutdown();
  serve_thread.join();
}

TEST_F(TransportTest, MixedProtocolClientsShareOneServer) {
  // JSON and binary connections interleaved against one server: the
  // negotiation is per-connection, stats count frames from both, and
  // pipelining survives on each.
  Server server(SmallOptions());
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  constexpr int kClients = 6;
  constexpr int kCallsPerClient = 4;
  std::vector<char> ok(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions options;
      options.binary = (c % 2 == 0);
      LineClient client(server.bound_port(), options);
      if (!client.connected()) return;
      if (options.binary != client.binary()) return;
      const std::string line =
          EncodeImputeRequest(*load_spec_, LaneRequest(0.0005 * c));
      std::string first;
      if (!client.Call(line, &first)) return;
      for (int k = 1; k < kCallsPerClient; ++k) {
        std::string again;
        if (!client.Call(line, &again) || again != first) return;
      }
      ok[static_cast<size_t>(c)] = 1;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[static_cast<size_t>(c)]) << "client " << c;
  }

  const std::string stats_line = server.HandleLine("{\"op\":\"stats\"}");
  auto stats = Json::Parse(stats_line);
  ASSERT_TRUE(stats.ok());
  // Every call from both protocols is counted, plus one negotiation ping
  // per binary client (clients 0, 2, 4) and this stats frame itself.
  EXPECT_EQ(stats.value().Find("frames")->number_value(),
            static_cast<double>(kClients * kCallsPerClient + 3 + 1));

  server.Shutdown();
  serve_thread.join();
}

TEST_F(TransportTest, PipelinedResponsesDoNotWaitForDelayedAcks) {
  // Two frames in one send: the server answers them one after the other,
  // so the second, small response leaves while the first is still
  // unacknowledged. With Nagle on, it waits for that ACK, which a client
  // in delayed-ACK mode holds back ~40 ms; accepted sockets set
  // TCP_NODELAY so it does not.
  Server server(SmallOptions());
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  LineClient client(server.bound_port());
  ASSERT_TRUE(client.connected()) << client.last_error();
  const std::string single = EncodeImputeRequest(*load_spec_, LaneRequest());
  std::string response;
  // Warm the model and the connection (a fresh connection ACKs at once).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(single, &response)) << client.last_error();
  }
  // Short gaps keep each pair cheap even in a sanitizer build, so only a
  // stall can take it past the bound.
  std::vector<api::ImputeRequest> eight;
  for (int i = 0; i < 8; ++i) {
    api::ImputeRequest req = LaneRequest(0.002 * i);
    req.gap_end.lat = req.gap_start.lat + 0.02;
    eight.push_back(req);
  }
  const std::string pair =
      EncodeImputeBatchRequest(*load_spec_, eight) + "\n" + single + "\n";
  // A stall costs every pair ~40 ms. The median, not the slowest pair,
  // is held to the bound: a parallel sanitizer run can delay a single
  // pair past it on CPU time alone.
  std::vector<double> pair_ms;
  for (int rep = 0; rep < 20; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.SendRaw(pair)) << client.last_error();
    ASSERT_TRUE(client.ReadLine(&response)) << client.last_error();
    ASSERT_TRUE(client.ReadLine(&response)) << client.last_error();
    pair_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::string all;
  for (const double ms : pair_ms) all += " " + std::to_string(ms);
  std::nth_element(pair_ms.begin(), pair_ms.begin() + 10, pair_ms.end());
  EXPECT_LT(pair_ms[10], 20.0) << "pair times (ms):" << all;

  server.Shutdown();
  serve_thread.join();
}

}  // namespace
}  // namespace habit::server
