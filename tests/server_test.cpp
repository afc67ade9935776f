// habit_serve engine tests: JSON hardening, protocol framing (malformed
// frames, oversized batches, unknown specs/ops, field typos), request
// validation before dispatch (garbage never triggers a model load), and
// the serving equivalence contract — concurrent clients, over HandleLine
// and over real TCP, get byte-identical responses to serializing an
// in-process MakeModel + ImputeBatch through the same protocol encoder.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "core/format.h"
#include "core/rng.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace habit::server {
namespace {

// ----------------------------------------------------------------- fixtures

// One dense lane of trips (same shape as model_cache_test) — enough for a
// small HABIT build whose imputations actually traverse the graph.
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

// A shared on-disk snapshot + the load spec serving it, built once.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snapshot_path_ = new std::string(
        (std::filesystem::temp_directory_path() / "server_test.snap")
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

std::string* ServerTest::snapshot_path_ = nullptr;
std::string* ServerTest::load_spec_ = nullptr;

ServerOptions SmallOptions() {
  ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 4;
  options.max_batch = 64;
  options.max_line_bytes = 1 << 20;
  return options;
}

// Parses a response line and returns the frame (must be valid JSON — the
// server must never emit a malformed line, whatever the input).
Json MustParse(const std::string& line) {
  auto parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  return parsed.ok() ? parsed.MoveValue() : Json();
}

bool IsErrorWith(const std::string& line, const std::string& code,
                 const std::string& message_substring) {
  const Json frame = MustParse(line);
  const Json* ok = frame.Find("ok");
  if (ok == nullptr || !ok->is_bool() || ok->bool_value()) return false;
  const Json* error = frame.Find("error");
  if (error == nullptr) return false;
  const Json* got_code = error->Find("code");
  const Json* message = error->Find("message");
  if (got_code == nullptr || got_code->string_value() != code) return false;
  return message != nullptr &&
         message->string_value().find(message_substring) !=
             std::string::npos;
}

// --------------------------------------------------------------- JSON layer

TEST(JsonTest, ParsesAndDumpsRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-3e2],"b":"x\"\\\n\u00e9","c":{"d":true,"e":null},"f":false})";
  auto v = Json::Parse(text);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  // Dump re-parses to the same structure (escapes normalized).
  auto again = Json::Parse(v.value().Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().Dump(), v.value().Dump());
  EXPECT_EQ(v.value().Find("a")->items()[2].number_value(), -300.0);
  EXPECT_EQ(v.value().Find("b")->string_value(), "x\"\\\n\u00e9");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* cases[] = {
      "",              // empty
      "{",             // truncated object
      "[1,2",          // truncated array
      "{\"a\":1,}",    // trailing comma
      "{'a':1}",       // single quotes
      "{\"a\":01}",    // leading zero
      "{\"a\":1.}",    // digits required after '.'
      "{\"a\":1e}",    // digits required in exponent
      "{\"a\":+1}",    // leading plus
      "nulll",         // trailing characters
      "{} {}",         // two documents
      "\"\\u12\"",     // truncated \u escape
      "\"\\uD800\"",   // unpaired high surrogate
      "\"\\uDC00\"",   // unpaired low surrogate
      "\"\\x41\"",     // invalid escape
      "\"\x01\"",      // raw control character
      "{\"a\":1,\"a\":2}",  // duplicate key
      "inf",           // not a JSON number
      "{\"a\":1e400}",      // overflows double
  };
  for (const char* text : cases) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
}

TEST(JsonTest, DepthLimitStopsNestingBombs) {
  std::string bomb(100000, '[');
  EXPECT_FALSE(Json::Parse(bomb).ok());  // must not crash the stack
  // Within the limit, depth parses fine.
  std::string ok = std::string(10, '[') + "1" + std::string(10, ']');
  EXPECT_TRUE(Json::Parse(ok).ok());
}

TEST(JsonTest, ValueCountCapStopsExpansionBombs) {
  // Wire bytes expand ~50-100x into tree nodes; the parser caps values,
  // not just bytes, so "[1,1,1,...]" cannot heap hundreds of MB.
  std::string bomb = "[";
  for (int i = 0; i < 300000; ++i) bomb += "1,";
  bomb += "1]";
  EXPECT_FALSE(Json::Parse(bomb).ok());
  EXPECT_TRUE(Json::Parse("[1,2,3]", 64, 5).ok());   // 4 values
  EXPECT_FALSE(Json::Parse("[1,2,3,4,5]", 64, 5).ok());  // 6 values
}

// The number codec's reference: the snprintf/strtod loop it replaced.
// DumpDouble and core::FormatDouble must print the same bytes, and
// Json::Parse must read strtod's bits.
std::string LoopFormat(double d) {
  char buf[40];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    // lint: raw-parse(the reference's round-trip probe)
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::string LoopDumpDouble(double d) {
  if (!std::isfinite(d)) return "null";
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  return LoopFormat(d);
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Parses `token` as a whole JSON document and expects strtod's bits.
void ExpectParsesLikeStrtod(const std::string& token) {
  auto parsed = Json::Parse(token);
  ASSERT_TRUE(parsed.ok()) << token << ": " << parsed.status().ToString();
  ASSERT_TRUE(parsed.value().is_number()) << token;
  // lint: raw-parse(the reference conversion)
  const double expected = std::strtod(token.c_str(), nullptr);
  EXPECT_EQ(Bits(parsed.value().number_value()), Bits(expected)) << token;
}

TEST(JsonTest, NumbersRoundTripExactly) {
  Rng rng(20241);
  std::vector<double> table;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng.engine()();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(d)) table.push_back(d);
  }
  for (int i = 0; i < 20000; ++i) {
    table.push_back(rng.Uniform(-90, 90));
    table.push_back(rng.Uniform(-180, 180));
  }
  for (const double edge : {90.0, -90.0, 180.0, -180.0}) {
    table.push_back(edge);
    table.push_back(std::nextafter(edge, 0.0));
  }
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    table.push_back(p);
    table.push_back(std::nextafter(p, 0.0));
    table.push_back(-p);
  }
  const double subnormal_edges[] = {
      std::numeric_limits<double>::denorm_min(),
      2 * std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 1.0),
      std::numeric_limits<double>::max(),
      0.0,
      -0.0,
      1e15,
      0.1,
      54.426565983510976,
      -10.226121292051234};
  for (const double d : subnormal_edges) {
    table.push_back(d);
    table.push_back(-d);
  }
  ASSERT_GE(table.size(), 100000u);

  size_t mismatches = 0;
  for (const double d : table) {
    const std::string dumped = DumpDouble(d);
    const std::string formatted = core::FormatDouble(d);
    const std::string loop = LoopFormat(d);
    const std::string loop_dumped = LoopDumpDouble(d);
    if (dumped != loop_dumped || formatted != loop) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << std::hexfloat << d << ": DumpDouble " << dumped
                      << " vs " << loop_dumped << ", FormatDouble "
                      << formatted << " vs " << loop;
      }
      continue;
    }
    ExpectParsesLikeStrtod(dumped);
    if (loop != dumped) ExpectParsesLikeStrtod(loop);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(DumpDouble(3600), "3600");  // integral: no exponent, no ".0"
  EXPECT_EQ(DumpDouble(-0.0), "-0");
  EXPECT_EQ(DumpDouble(std::nan("")), "null");
  // The CSV writer prints non-finite values as printf does.
  for (const double d : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::nan(""), -std::nan("")}) {
    EXPECT_EQ(core::FormatDouble(d), LoopFormat(d));
  }

  // Long mantissas: 1-30 digits, exponents -350..350.
  for (int i = 0; i < 20000; ++i) {
    std::string token = rng.Bernoulli(0.5) ? "-" : "";
    const int digits = static_cast<int>(rng.UniformInt(1, 30));
    const int point = static_cast<int>(rng.UniformInt(0, digits));
    token += static_cast<char>('1' + rng.UniformInt(0, 8));
    for (int k = 1; k < digits; ++k) {
      if (k == point) token += '.';
      token += static_cast<char>('0' + rng.UniformInt(0, 9));
    }
    token += "e" + std::to_string(rng.UniformInt(-350, 350));
    // lint: raw-parse(only tokens strtod reads as finite are valid JSON here)
    if (!std::isfinite(std::strtod(token.c_str(), nullptr))) continue;
    ExpectParsesLikeStrtod(token);
  }

  // Out of range: underflow reads as a signed zero, overflow is refused.
  ExpectParsesLikeStrtod("1e-400");
  ExpectParsesLikeStrtod("-1e-400");
  EXPECT_TRUE(std::signbit(Json::Parse("-1e-400").value().number_value()));
  const auto overflow = Json::Parse("1e400");
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("number out of range"),
            std::string::npos)
      << overflow.status().ToString();
}

// ----------------------------------------------------------------- protocol

TEST(ProtocolTest, MalformedFramesAreInvalidArgument) {
  const char* cases[] = {
      "garbage{",
      "[]",                                  // frame must be an object
      "{}",                                  // missing op
      "{\"op\":42}",                         // op must be a string
      "{\"op\":\"warp\"}",                   // unknown op
      "{\"op\":\"impute\"}",                 // missing model
      "{\"op\":\"impute\",\"model\":\"\"}",  // empty model
      "{\"op\":\"impute\",\"model\":\"habit\"}",  // missing request
      "{\"op\":\"impute_batch\",\"model\":\"habit\",\"requests\":{}}",
      "{\"op\":\"impute_batch\",\"model\":\"habit\",\"requests\":[]}",
      "{\"op\":\"ping\",\"extra\":1}",       // unknown field
      "{\"op\":\"ping\",\"id\":[1]}",        // id must be scalar
  };
  for (const char* line : cases) {
    auto parsed = ParseRequest(line, 64);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ProtocolTest, RequestFieldTyposFailLoudly) {
  // "lon" instead of "lng" must be an unknown-field error, not a silently
  // defaulted coordinate — the CLI atof bug, at the protocol layer.
  const std::string line =
      R"({"op":"impute","model":"habit","request":{"gap_start":{"lat":54.4,"lon":10.2},"gap_end":{"lat":54.5,"lng":10.3}}})";
  auto parsed = ParseRequest(line, 64);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown field 'lon'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(ProtocolTest, OversizedBatchIsRejected) {
  std::vector<api::ImputeRequest> requests(65, LaneRequest());
  const std::string line = EncodeImputeBatchRequest("habit", requests);
  auto parsed = ParseRequest(line, 64);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("exceeds the per-frame limit"),
            std::string::npos);
  EXPECT_TRUE(ParseRequest(line, 65).ok());
}

TEST(ProtocolTest, ParserTreeCapScalesWithConfiguredBatchCap) {
  // 30k requests is ~330k JSON values — past the parser's default tree
  // cap. With max_batch raised to cover it, the frame must parse; with a
  // small max_batch it is still rejected (the scaled tree cap fails it
  // before a third of a million nodes ever materialize).
  std::vector<api::ImputeRequest> requests(30000, LaneRequest());
  const std::string line = EncodeImputeBatchRequest("habit", requests);
  EXPECT_TRUE(ParseRequest(line, 30000).ok());
  EXPECT_FALSE(ParseRequest(line, 64).ok());
}

TEST(ProtocolTest, EncodeParseRoundTripsRequests) {
  api::ImputeRequest req = LaneRequest();
  req.vessel_type = ais::VesselType::kCargo;
  auto parsed = ParseRequest(EncodeImputeRequest("habit:r=9", req), 16);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().requests.size(), 1u);
  const api::ImputeRequest& got = parsed.value().requests[0];
  EXPECT_EQ(got.gap_start, req.gap_start);
  EXPECT_EQ(got.gap_end, req.gap_end);
  EXPECT_EQ(got.t_start, req.t_start);
  EXPECT_EQ(got.t_end, req.t_end);
  ASSERT_TRUE(got.vessel_type.has_value());
  EXPECT_EQ(*got.vessel_type, ais::VesselType::kCargo);
  EXPECT_EQ(parsed.value().model, "habit:r=9");
}

TEST(ProtocolTest, UnknownVesselTypeIsRejectedNotOther) {
  const std::string line =
      R"({"op":"impute","model":"habit","request":{"gap_start":{"lat":54.4,"lng":10.2},"gap_end":{"lat":54.5,"lng":10.3},"vessel_type":"submarine"}})";
  auto parsed = ParseRequest(line, 16);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown vessel_type"),
            std::string::npos);
}

// -------------------------------------------------------------- server core

TEST_F(ServerTest, PingMethodsAndIdEcho) {
  Server server(SmallOptions());
  EXPECT_EQ(server.HandleLine("{\"op\":\"ping\",\"id\":\"x\"}"),
            "{\"ok\":true,\"op\":\"ping\",\"id\":\"x\"}");
  const Json methods = MustParse(server.HandleLine("{\"op\":\"methods\"}"));
  ASSERT_NE(methods.Find("methods"), nullptr);
  // Every registered method is listed.
  EXPECT_EQ(methods.Find("methods")->items().size(),
            api::ModelRegistry::Global().MethodNames().size());
}

TEST_F(ServerTest, MalformedFramesGetErrorResponsesAndServerSurvives) {
  Server server(SmallOptions());
  EXPECT_TRUE(IsErrorWith(server.HandleLine("garbage{"), "InvalidArgument",
                          "JSON parse error"));
  EXPECT_TRUE(IsErrorWith(server.HandleLine("{\"op\":\"warp\"}"),
                          "InvalidArgument", "unknown op"));
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(std::string(2 << 20, 'x')), "InvalidArgument",
      "exceeds the limit"));
  // The server still answers after garbage.
  EXPECT_EQ(server.HandleLine("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"op\":\"ping\"}");
  const Json stats = MustParse(server.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("frames_rejected")->number_value(), 3.0);
}

TEST_F(ServerTest, UnknownSpecsAndBadParamsAreErrors) {
  Server server(SmallOptions());
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(EncodeImputeRequest("warpdrive", LaneRequest())),
      "InvalidArgument", "unknown method"));
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(EncodeImputeRequest("habit:r=bogus", LaneRequest())),
      "InvalidArgument", "not an integer"));
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(
          EncodeImputeRequest("habit:load=/nonexistent/m.snap",
                              LaneRequest())),
      "IoError", ""));
  // save= would make the query surface a remote file-writing primitive.
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(
          EncodeImputeRequest("habit:r=8,save=/tmp/evil.snap",
                              LaneRequest())),
      "InvalidArgument", "save= is not allowed"));
  // threads= would nest thread pools (workers x threads searches) and key
  // a distinct cache entry per value; concurrency belongs to --threads.
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(EncodeImputeRequest(*load_spec_ + ",threads=64",
                                            LaneRequest())),
      "InvalidArgument", "threads= is not allowed"));
  EXPECT_EQ(server.cache().num_models(), 0u);  // none of these resolved
}

TEST_F(ServerTest, InvalidRequestsRejectedBeforeModelResolution) {
  Server server(SmallOptions());
  api::ImputeRequest bad = LaneRequest();
  bad.gap_start.lat = 91.0;
  // The model spec points at a *nonexistent* snapshot, but the validation
  // error must win: garbage input never reaches the cache, so no
  // IoError and no load attempt.
  const std::string line =
      EncodeImputeRequest("habit:load=/nonexistent/m.snap", bad);
  EXPECT_TRUE(IsErrorWith(server.HandleLine(line), "InvalidArgument",
                          "request: "));
  EXPECT_EQ(server.cache().stats().misses, 0u);

  // Negative time span, batch op: rejected with the failing index.
  std::vector<api::ImputeRequest> batch(3, LaneRequest());
  batch[2].t_start = batch[2].t_end + 1;
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(EncodeImputeBatchRequest(*load_spec_, batch)),
      "InvalidArgument", "requests[2]"));
  EXPECT_EQ(server.cache().stats().misses, 0u);
}

TEST_F(ServerTest, BatchMatchesInProcessImputeBatchByteForByte) {
  Server server(SmallOptions());
  auto model = api::MakeModel(*load_spec_, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 9; ++i) {
    requests.push_back(LaneRequest(0.002 * i));
  }
  // One deliberately unreachable query: per-query failures must embed in
  // "results" identically too.
  api::ImputeRequest offshore = LaneRequest();
  offshore.gap_start = {10.0, -140.0};
  offshore.gap_end = {11.0, -141.0};
  requests.push_back(offshore);

  const auto expected_results = model.value()->ImputeBatch(requests);
  const std::string expected = BatchResponseLine(expected_results, Json());
  const std::string actual =
      server.HandleLine(EncodeImputeBatchRequest(*load_spec_, requests));
  EXPECT_EQ(actual, expected);

  // Single-impute frames answer with the identical result object.
  const std::string single =
      server.HandleLine(EncodeImputeRequest(*load_spec_, requests[0]));
  EXPECT_EQ(single, ImputeResponseLine(expected_results[0], Json()));
}

// Serves `requests` as one impute_batch frame over both protocols and
// expects each answer to be byte-identical to in-process serial
// ImputeBatch over the same spec.
void ExpectServedMatchesInProcess(
    Server& server, const std::string& spec,
    const std::vector<api::ImputeRequest>& requests) {
  auto model = api::MakeModel(spec, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const auto want = model.value()->ImputeBatch(requests);
  EXPECT_EQ(server.HandleLine(EncodeImputeBatchRequest(spec, requests)),
            BatchResponseLine(want, Json()));
  Request request;
  request.op = Request::Op::kImputeBatch;
  request.model = spec;
  request.requests = requests;
  EXPECT_EQ(server.HandleFrame(
                frame::EncodeRequestFrame(request).substr(frame::kHeaderBytes)),
            frame::EncodeResultsFrame(want, Json(), /*batch=*/true));
}

TEST_F(ServerTest, BinaryFramesWithTimestampsPastTwoToThe53AreRefused) {
  // A binary frame carries any int64_t timestamp (a JSON one stops at
  // 2^53), so the bound in ValidateRequest is what keeps INT64_MIN and
  // INT64_MAX out of the imputer's t_end - t_start.
  Server server(SmallOptions());
  const auto serve_binary = [&](const std::vector<api::ImputeRequest>& rs) {
    Request request;
    request.op = Request::Op::kImputeBatch;
    request.model = *load_spec_;
    request.requests = rs;
    const std::string response = server.HandleFrame(
        frame::EncodeRequestFrame(request).substr(frame::kHeaderBytes));
    auto decoded = frame::DecodeResponsePayload(
        std::string_view(response).substr(frame::kHeaderBytes));
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return decoded.ok() ? frame::ResponseToJsonLine(decoded.value())
                        : std::string();
  };
  api::ImputeRequest extreme = LaneRequest();
  extreme.t_start = std::numeric_limits<int64_t>::min();
  extreme.t_end = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(IsErrorWith(serve_binary({LaneRequest(), extreme}),
                          "InvalidArgument", "requests[1]: gap timestamp"));
  EXPECT_TRUE(IsErrorWith(serve_binary({LaneRequest(), extreme}),
                          "InvalidArgument", "2^53"));
  EXPECT_EQ(server.cache().stats().misses, 0u);  // refused before any load

  // The widest legal span is served, as in process.
  api::ImputeRequest widest = LaneRequest();
  widest.t_start = -api::kMaxAbsTimestamp;
  widest.t_end = api::kMaxAbsTimestamp;
  ExpectServedMatchesInProcess(server, *load_spec_, {LaneRequest(), widest});
}

TEST_F(ServerTest, FramesClaimedByThePoolMatchInProcessByteForByte) {
  auto model = api::MakeModel(*load_spec_, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // 40 gaps of different lengths, sorted by serial search effort so the
  // heaviest sit in the frame's first quarter: a fixed split would hand
  // them all to one worker.
  std::vector<api::ImputeRequest> gaps;
  for (int i = 0; i < 40; ++i) {
    api::ImputeRequest req = LaneRequest();
    req.gap_start.lat = 55.01 + 0.003 * (i % 10);
    req.gap_end.lat = 55.08 + 0.0045 * i;
    gaps.push_back(req);
  }
  const auto serial = model.value()->ImputeBatch(gaps);
  std::vector<size_t> order(gaps.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return serial[a].value().expanded > serial[b].value().expanded;
  });
  std::vector<api::ImputeRequest> heavy_first;
  for (const size_t i : order) heavy_first.push_back(gaps[i]);
  ASSERT_GT(serial[order.front()].value().expanded,
            serial[order.back()].value().expanded);

  Server server(SmallOptions());
  ExpectServedMatchesInProcess(server, *load_spec_, heavy_first);
  const Json stats = MustParse(server.HandleLine("{\"op\":\"stats\"}"));
  const Json& entry = stats.Find("models")->items()[0];
  EXPECT_EQ(entry.Find("queries_ok")->number_value() +
                entry.Find("queries_failed")->number_value(),
            80.0);  // 40 over each protocol
  EXPECT_EQ(entry.Find("latency_count")->number_value(), 80.0);

  // Fewer gaps than workers, and one more than workers.
  for (const size_t n : {size_t{1}, size_t{3},
                         static_cast<size_t>(server.workers()) + 1}) {
    SCOPED_TRACE(n);
    ExpectServedMatchesInProcess(
        server, *load_spec_,
        std::vector<api::ImputeRequest>(heavy_first.begin(),
                                        heavy_first.begin() + n));
  }

  // A baseline runs through the same executor when served.
  const std::string gti_path =
      (std::filesystem::temp_directory_path() / "server_test_gti.snap")
          .string();
  ASSERT_TRUE(api::MakeModel("gti:save=" + gti_path, MakeTrips()).ok());
  ExpectServedMatchesInProcess(server, "gti:load=" + gti_path, heavy_first);
  std::remove(gti_path.c_str());
}

TEST_F(ServerTest, ConcurrentClientsShareOneColdLoadAndAgreeByteForByte) {
  Server server(SmallOptions());
  auto model = api::MakeModel(*load_spec_, {});
  ASSERT_TRUE(model.ok());
  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(LaneRequest(0.001 * i));
  const std::string expected =
      BatchResponseLine(model.value()->ImputeBatch(requests), Json());
  const std::string line = EncodeImputeBatchRequest(*load_spec_, requests);

  // N concurrent "connections" hit the cold server at once. Single-flight
  // in the cache means exactly one snapshot load; every client gets the
  // same bytes.
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&server, &line, &responses, c] { responses[c] = server.HandleLine(line); });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& response : responses) {
    EXPECT_EQ(response, expected);
  }
  const api::ModelCache::Stats stats = server.cache().stats();
  EXPECT_EQ(stats.misses, 1u);  // one cold load total
  EXPECT_EQ(stats.hits + stats.coalesced, kClients - 1u);
  EXPECT_EQ(server.cache().num_models(), 1u);
}

TEST_F(ServerTest, StatsReportPerModelCounters) {
  Server server(SmallOptions());
  std::vector<api::ImputeRequest> requests(4, LaneRequest());
  // Distinct vessel ids on the batch feed the HyperLogLog sketch.
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].vessel_id = 219000100 + static_cast<int64_t>(i);
  }
  ASSERT_FALSE(server.HandleLine(
                   EncodeImputeBatchRequest(*load_spec_, requests))
                   .empty());
  ASSERT_FALSE(
      server.HandleLine(EncodeImputeRequest(*load_spec_, LaneRequest()))
          .empty());
  const Json stats = MustParse(server.HandleLine("{\"op\":\"stats\"}"));
  ASSERT_NE(stats.Find("models"), nullptr);
  ASSERT_EQ(stats.Find("models")->items().size(), 1u);
  const Json& entry = stats.Find("models")->items()[0];
  EXPECT_EQ(entry.Find("model")->string_value(), *load_spec_);
  EXPECT_EQ(entry.Find("resolves")->number_value(), 2.0);
  EXPECT_EQ(entry.Find("queries_ok")->number_value() +
                entry.Find("queries_failed")->number_value(),
            5.0);
  // Every query fed the latency sketches; the estimates are sane (>= 0,
  // p99 >= p50 once both estimate off the same sample set).
  ASSERT_NE(entry.Find("latency_count"), nullptr);
  EXPECT_EQ(entry.Find("latency_count")->number_value(), 5.0);
  ASSERT_NE(entry.Find("latency_p50_ms"), nullptr);
  ASSERT_NE(entry.Find("latency_p99_ms"), nullptr);
  EXPECT_GE(entry.Find("latency_p50_ms")->number_value(), 0.0);
  EXPECT_GE(entry.Find("latency_p99_ms")->number_value() + 1e-9,
            entry.Find("latency_p50_ms")->number_value());
  // 4 distinct vessel ids: HLL linear counting is near-exact at this
  // scale (the bias correction keeps it from being exactly integral).
  ASSERT_NE(entry.Find("distinct_vessels"), nullptr);
  EXPECT_NEAR(entry.Find("distinct_vessels")->number_value(), 4.0, 0.05);
  EXPECT_EQ(stats.Find("cache")->Find("coalesced")->number_value(), 0.0);
}

TEST_F(ServerTest, VesselFieldRoundTripsAndIsMetadataOnly) {
  Server server(SmallOptions());
  // The same gap with and without a vessel id answers byte-identically
  // except for the request echo — metadata must never reach the model.
  api::ImputeRequest with_vessel = LaneRequest();
  with_vessel.vessel_id = 219012345;
  const std::string tagged =
      server.HandleLine(EncodeImputeRequest(*load_spec_, with_vessel));
  const std::string plain =
      server.HandleLine(EncodeImputeRequest(*load_spec_, LaneRequest()));
  EXPECT_EQ(tagged, plain);
  // Encode emits the field, parse round-trips it.
  const std::string frame = EncodeImputeRequest(*load_spec_, with_vessel);
  auto parsed = ParseRequest(frame, 64);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed.value().requests[0].vessel_id.has_value());
  EXPECT_EQ(*parsed.value().requests[0].vessel_id, 219012345);
  // Strict validation: a non-integer vessel is rejected like any field.
  EXPECT_TRUE(IsErrorWith(
      server.HandleLine(
          R"({"op":"impute","model":"habit","request":{"gap_start":{"lat":55,"lng":11},"gap_end":{"lat":55.1,"lng":11},"vessel":1.5}})"),
      "InvalidArgument", "must be an integer"));
}

TEST_F(ServerTest, ServeStreamAnswersLineByLine) {
  Server server(SmallOptions());
  std::istringstream in(
      "{\"op\":\"ping\"}\n" +
      EncodeImputeRequest(*load_spec_, LaneRequest()) + "\r\n" +
      "\n"  // blank lines are skipped
      "junk\n");
  std::ostringstream out;
  server.ServeStream(in, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "{\"ok\":true,\"op\":\"ping\"}");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, server.HandleLine(
                      EncodeImputeRequest(*load_spec_, LaneRequest())));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(IsErrorWith(line, "InvalidArgument", "JSON parse error"));
  EXPECT_FALSE(std::getline(lines, line));
}

TEST_F(ServerTest, ServeStreamBoundsUnterminatedFramesAndAnswersTrailing) {
  ServerOptions options = SmallOptions();
  options.max_line_bytes = 1024;
  Server server(options);

  // A final frame without a trailing newline is still answered (the
  // common `printf '{...}' | habit_serve --stdin` case).
  {
    std::istringstream in("{\"op\":\"ping\"}");
    std::ostringstream out;
    server.ServeStream(in, out);
    EXPECT_EQ(out.str(), "{\"ok\":true,\"op\":\"ping\"}\n");
  }

  // An unterminated frame past the cap: one error response, serving
  // stops — the buffer must not grow with the input.
  {
    std::istringstream in(std::string(1 << 20, 'x'));
    std::ostringstream out;
    server.ServeStream(in, out);
    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_TRUE(IsErrorWith(line, "InvalidArgument", "exceeds"));
    EXPECT_FALSE(std::getline(lines, line));
  }
}

// ----------------------------------------------------------------- TCP layer

TEST_F(ServerTest, TcpClientsGetIdenticalAnswersAndCleanShutdown) {
  Server server(SmallOptions());
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_NE(server.bound_port(), 0);
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  auto model = api::MakeModel(*load_spec_, {});
  ASSERT_TRUE(model.ok());
  std::vector<api::ImputeRequest> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(LaneRequest(0.001 * i));
  const std::string expected =
      BatchResponseLine(model.value()->ImputeBatch(requests), Json());
  const std::string frame = EncodeImputeBatchRequest(*load_spec_, requests);

  constexpr int kClients = 4;
  std::vector<std::thread> client_threads;
  std::vector<std::string> responses(kClients);
  // vector<char>: client threads write their slot concurrently and
  // vector<bool> packs flags into shared bytes (a data race).
  std::vector<char> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    client_threads.emplace_back([&, c] {
      LineClient client(server.bound_port());
      if (!client.connected()) return;
      // Two frames pipelined on one connection; responses arrive in order.
      if (!client.Send("{\"op\":\"ping\",\"id\":" + std::to_string(c) + "}"))
        return;
      if (!client.Send(frame)) return;
      std::string ping, batch;
      if (!client.ReadLine(&ping) || !client.ReadLine(&batch)) return;
      if (ping != "{\"ok\":true,\"op\":\"ping\",\"id\":" +
                      std::to_string(c) + "}") {
        return;
      }
      responses[c] = batch;
      ok[c] = 1;
    });
  }
  for (std::thread& t : client_threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(ok[c]) << "client " << c << " failed";
    EXPECT_EQ(responses[c], expected);
  }

  server.Shutdown();
  serve_thread.join();
}

TEST_F(ServerTest, TcpOversizedFramesAnswerOnceAndClose) {
  ServerOptions options = SmallOptions();
  options.max_line_bytes = 1024;
  Server server(options);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  // One deterministic rule regardless of termination or where recv chunk
  // boundaries land: a frame past the cap gets one error response and the
  // connection is closed.
  {
    LineClient client(server.bound_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(std::string(4096, 'x')));  // newline-terminated
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_TRUE(IsErrorWith(line, "InvalidArgument", "exceeds"));
    EXPECT_FALSE(client.ReadLine(&line));  // server hung up
  }
  {
    LineClient client(server.bound_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(std::string(4096, 'x')));  // no newline
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_TRUE(IsErrorWith(line, "InvalidArgument", "exceeds"));
    EXPECT_FALSE(client.ReadLine(&line));  // server hung up
  }

  // A final unterminated frame before half-close is answered (matches
  // the --stdin transport's trailing-frame behavior).
  {
    LineClient client(server.bound_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw("{\"op\":\"ping\"}"));  // no newline
    client.HalfClose();
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line, "{\"ok\":true,\"op\":\"ping\"}");
  }

  server.Shutdown();
  serve_thread.join();
}

}  // namespace
}  // namespace habit::server
