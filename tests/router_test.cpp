// Sharded-serving tests: the shard builder's manifest contract
// (round-trip, tamper rejection), the router's core acceptance
// criterion — in-shard routed responses BYTE-IDENTICAL to single-process
// serving of the monolithic model — halo vs fallback routing, the
// retry-then-degrade path when a shard backend is down, fail-fast
// startup on manifest/snapshot mismatches, and the LineClient deadlines
// the remote backends ride on.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "hexgrid/hexgrid.h"
#include "router/backend.h"
#include "router/manifest.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace habit::router {
namespace {

using server::Json;

// ----------------------------------------------------------------- fixtures

// One long lane at constant lng: 6 trips x 180 points stepping 0.003 deg
// lat (~55 km end to end) — long enough to cross several res-6 parent
// cells, so a parent_res=6 build yields a genuinely multi-shard manifest.
std::vector<ais::Trip> MakeLaneTrips() {
  std::vector<ais::Trip> trips;
  for (int t = 0; t < 6; ++t) {
    ais::Trip trip;
    trip.trip_id = t + 1;
    trip.mmsi = 100 + t;
    trip.type = ais::VesselType::kPassenger;
    for (int i = 0; i < 180; ++i) {
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

constexpr int kParentRes = 6;
constexpr int kFineRes = 8;

hex::CellId ParentAt(double lat, double lng) {
  const hex::CellId fine = hex::LatLngToCell({lat, lng}, kFineRes);
  auto parent = hex::CellToParent(fine, kParentRes);
  return parent.ok() ? parent.value() : hex::kInvalidCell;
}

api::ImputeRequest GapRequest(double lat_start, double lat_end) {
  api::ImputeRequest req;
  req.gap_start = {lat_start, 11.0};
  req.gap_end = {lat_end, 11.0};
  req.t_start = 1000000;
  req.t_end = 1003600;
  return req;
}

// Shards built once for the whole suite (each shard is a full HABIT
// model build).
class RouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() / "router_test_shards")
            .string());
    std::filesystem::remove_all(*dir_);
    ShardBuildOptions options;
    options.parent_res = kParentRes;
    options.halo_k = 1;
    options.spec = "habit:r=8";
    options.out_dir = *dir_;
    auto manifest = BuildShards(MakeLaneTrips(), options);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    manifest_ = new ShardManifest(manifest.MoveValue());
    ASSERT_GE(manifest_->shards.size(), 2u)
        << "lane must span multiple res-" << kParentRes << " parents";
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete manifest_;
    dir_ = nullptr;
    manifest_ = nullptr;
  }

  // A local-mode router over a fresh in-process server. Keeps the server
  // alive alongside the router.
  struct LocalRig {
    std::unique_ptr<server::Server> server;
    std::unique_ptr<Router> router;
  };
  static LocalRig MakeLocalRig(const RouterOptions& options = {}) {
    LocalRig rig;
    server::ServerOptions server_options;
    server_options.cache_bytes = 1ull << 30;
    server_options.threads = 2;
    rig.server = std::make_unique<server::Server>(server_options);
    auto made = Router::Make(
        *manifest_, *dir_,
        {std::make_shared<LocalBackend>(rig.server.get())}, options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    if (made.ok()) rig.router = made.MoveValue();
    return rig;
  }

  // A gap (~0.03 deg) whose endpoints share one parent cell that has a
  // shard — the "shard" routing case. Scans the lane so the test does not
  // hard-code grid geometry.
  static api::ImputeRequest InShardGap(size_t* shard_index = nullptr) {
    for (int i = 0; i + 10 < 180; ++i) {
      const double a = 55.0 + i * 0.003;
      const double b = a + 10 * 0.003;
      const hex::CellId pa = ParentAt(a, 11.0);
      if (pa == hex::kInvalidCell || pa != ParentAt(b, 11.0)) continue;
      for (size_t s = 0; s < manifest_->shards.size(); ++s) {
        if (manifest_->shards[s].parent_cell == pa) {
          if (shard_index != nullptr) *shard_index = s;
          return GapRequest(a, b);
        }
      }
    }
    ADD_FAILURE() << "no in-shard gap found along the lane";
    return GapRequest(55.0, 55.03);
  }

  // A gap whose endpoints sit in ADJACENT parent cells (grid distance 1,
  // within the halo) — the "halo" routing case.
  static api::ImputeRequest HaloGap() {
    for (int i = 0; i + 10 < 180; ++i) {
      const double a = 55.0 + i * 0.003;
      const double b = a + 10 * 0.003;
      const hex::CellId pa = ParentAt(a, 11.0);
      const hex::CellId pb = ParentAt(b, 11.0);
      if (pa == hex::kInvalidCell || pb == hex::kInvalidCell || pa == pb) {
        continue;
      }
      const auto distance = hex::GridDistance(pa, pb);
      if (!distance.ok() || distance.value() != 1) continue;
      bool have_a = false;
      for (const ShardEntry& shard : manifest_->shards) {
        have_a = have_a || shard.parent_cell == pa;
      }
      if (have_a) return GapRequest(a, b);
    }
    ADD_FAILURE() << "no halo gap found along the lane";
    return GapRequest(55.0, 55.05);
  }

  // The whole lane end to end: parents several rings apart, beyond any
  // halo — the "fallback" routing case.
  static api::ImputeRequest CrossLaneGap() {
    const api::ImputeRequest req = GapRequest(55.0, 55.53);
    const auto distance =
        hex::GridDistance(ParentAt(55.0, 11.0), ParentAt(55.53, 11.0));
    EXPECT_TRUE(distance.ok() && distance.value() > manifest_->halo_k);
    return req;
  }

  static std::string* dir_;
  static ShardManifest* manifest_;
};

std::string* RouterTest::dir_ = nullptr;
ShardManifest* RouterTest::manifest_ = nullptr;

Json MustParse(const std::string& line) {
  auto parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  return parsed.ok() ? parsed.MoveValue() : Json();
}

// The monolithic reference: the same requests served single-process
// against the full-graph snapshot (the fallback — all trips, unclipped).
std::vector<std::string> MonolithicResults(
    const Router& router, const std::vector<api::ImputeRequest>& requests) {
  server::ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 1;
  server::Server server(options);
  const Json frame = MustParse(server.HandleLine(
      server::EncodeImputeBatchRequest(router.fallback_spec(), requests)));
  std::vector<std::string> dumped;
  const Json* results = frame.Find("results");
  EXPECT_NE(results, nullptr);
  if (results != nullptr) {
    for (const Json& result : results->items()) {
      dumped.push_back(result.Dump());
    }
  }
  return dumped;
}

// ----------------------------------------------------------- shard builder

TEST_F(RouterTest, BuildPartitionsTheCorpusWithHaloOverlap) {
  uint64_t total_points = 0;
  for (const ais::Trip& trip : MakeLaneTrips()) {
    total_points += trip.points.size();
  }
  // The fallback is the full corpus; shards overlap (halo), so together
  // they hold at least every point once.
  EXPECT_EQ(manifest_->fallback.points, total_points);
  uint64_t shard_points = 0;
  for (const ShardEntry& shard : manifest_->shards) {
    EXPECT_NE(shard.parent_cell, hex::kInvalidCell);
    EXPECT_GT(shard.points, 0u);
    EXPECT_LT(shard.points, total_points);  // clipping actually clipped
    EXPECT_LE(shard.min_lat, shard.max_lat);
    shard_points += shard.points;
  }
  EXPECT_GE(shard_points, total_points);
  // Every snapshot the manifest names exists on disk.
  for (const ShardEntry& shard : manifest_->shards) {
    EXPECT_TRUE(std::filesystem::exists(*dir_ + "/" + shard.snapshot_path))
        << shard.snapshot_path;
  }
  EXPECT_TRUE(std::filesystem::exists(*dir_ + "/" +
                                      manifest_->fallback.snapshot_path));
}

TEST_F(RouterTest, BuilderRejectsBadOptions) {
  const std::vector<ais::Trip> trips = MakeLaneTrips();
  ShardBuildOptions options;
  options.out_dir = *dir_;
  options.spec = "linear";  // not snapshot-capable
  EXPECT_FALSE(BuildShards(trips, options).ok());
  options.spec = "habit:save=/tmp/x";  // builder owns persistence
  EXPECT_FALSE(BuildShards(trips, options).ok());
  options.spec = "habit";
  options.parent_res = 12;  // parent finer than the model resolution
  EXPECT_FALSE(BuildShards(trips, options).ok());
  options.parent_res = 4;
  options.out_dir = "";
  EXPECT_FALSE(BuildShards(trips, options).ok());
  options.out_dir = *dir_;
  EXPECT_FALSE(BuildShards({}, options).ok());  // empty corpus
}

// ---------------------------------------------------------------- manifest

TEST_F(RouterTest, ManifestRoundTripsThroughDiskForm) {
  const std::string text = DumpManifest(*manifest_);
  auto parsed = ParseManifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(DumpManifest(parsed.value()), text);
  EXPECT_EQ(parsed.value().shards.size(), manifest_->shards.size());
  EXPECT_EQ(parsed.value().spec, manifest_->spec);
  // And the file shard-build wrote loads to the same form.
  auto loaded = LoadManifest(*dir_ + "/manifest.json");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(DumpManifest(loaded.value()), text);
}

TEST_F(RouterTest, ManifestTamperingIsRejected) {
  const std::string text = DumpManifest(*manifest_);
  // Flip one routing parameter without recomputing the checksum: the
  // canonical re-dump no longer matches.
  std::string tampered = text;
  const size_t pos = tampered.find("\"halo_k\":1");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 10, "\"halo_k\":2");
  auto parsed = ParseManifest(tampered);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
      << parsed.status().ToString();
  // Unknown members are rejected (strict surface), as is garbage.
  std::string extra = text;
  extra.insert(extra.find("\"format\""), "\"surprise\":1,");
  EXPECT_FALSE(ParseManifest(extra).ok());
  EXPECT_FALSE(ParseManifest("{}").ok());
  EXPECT_FALSE(ParseManifest("not json").ok());
}

TEST_F(RouterTest, CellHexFormIsStrict) {
  const hex::CellId cell = manifest_->shards[0].parent_cell;
  auto back = CellFromHex(CellToHex(cell));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), cell);
  EXPECT_FALSE(CellFromHex("").ok());
  EXPECT_FALSE(CellFromHex("12ab").ok());                  // too short
  EXPECT_FALSE(CellFromHex("00000000000000000").ok());     // too long
  EXPECT_FALSE(CellFromHex("000000000000000g").ok());      // not hex
}

TEST_F(RouterTest, RouterStartupVerifiesSnapshotsAgainstManifest) {
  server::ServerOptions server_options;
  server::Server server(server_options);
  auto backends = std::vector<std::shared_ptr<ShardBackend>>{
      std::make_shared<LocalBackend>(&server)};
  // A manifest whose shard entry points at the WRONG snapshot (the
  // fallback file): the O(1) checksum probe catches it at Make.
  ShardManifest swapped = *manifest_;
  swapped.shards[0].snapshot_path = swapped.fallback.snapshot_path;
  auto made = Router::Make(swapped, *dir_, backends);
  ASSERT_FALSE(made.ok());
  EXPECT_NE(made.status().message().find("does not match the manifest"),
            std::string::npos)
      << made.status().ToString();
  // A manifest naming a missing file fails too.
  ShardManifest missing = *manifest_;
  missing.shards[0].snapshot_path = "no_such_shard.bin";
  EXPECT_FALSE(Router::Make(missing, *dir_, backends).ok());
  // No backends at all is a configuration error.
  EXPECT_FALSE(Router::Make(*manifest_, *dir_, {}).ok());
}

// ----------------------------------------------------------------- routing

TEST_F(RouterTest, InShardResponsesAreByteIdenticalToMonolithicServing) {
  LocalRig rig = MakeLocalRig();
  ASSERT_NE(rig.router, nullptr);
  // Several in-shard gaps at different offsets (all endpoints pairwise in
  // one covered parent each).
  std::vector<api::ImputeRequest> requests;
  for (int k = 0; k < 5; ++k) {
    size_t shard = 0;
    api::ImputeRequest req = InShardGap(&shard);
    req.gap_start.lat += k * 0.0005;
    if (ParentAt(req.gap_start.lat, 11.0) !=
        ParentAt(req.gap_end.lat, 11.0)) {
      continue;  // nudged across a boundary: skip, the base gap remains
    }
    requests.push_back(req);
  }
  ASSERT_FALSE(requests.empty());

  const Json frame = MustParse(rig.router->HandleLine(
      server::EncodeImputeBatchRequest("", requests)));
  ASSERT_NE(frame.Find("ok"), nullptr);
  ASSERT_TRUE(frame.Find("ok")->bool_value());
  const Json* results = frame.Find("results");
  const Json* routes = frame.Find("routes");
  ASSERT_NE(results, nullptr);
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(results->items().size(), requests.size());
  ASSERT_EQ(routes->items().size(), requests.size());

  const std::vector<std::string> reference =
      MonolithicResults(*rig.router, requests);
  ASSERT_EQ(reference.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(routes->items()[i].string_value(), "shard") << i;
    // THE acceptance criterion: the shard model's answer, spliced through
    // the router, is byte-identical to the monolithic model's.
    EXPECT_EQ(results->items()[i].Dump(), reference[i]) << i;
    EXPECT_TRUE(results->items()[i].Find("ok")->bool_value()) << i;
  }
}

TEST_F(RouterTest, SingleImputeCarriesRouteAndEchoesId) {
  LocalRig rig = MakeLocalRig();
  ASSERT_NE(rig.router, nullptr);
  Json frame = Json::Object();
  frame.Set("op", Json::String("impute"));
  frame.Set("id", Json::String("q-7"));
  frame.Set("request", server::ImputeRequestToJson(InShardGap()));
  const Json response = MustParse(rig.router->HandleLine(frame.Dump()));
  EXPECT_TRUE(response.Find("ok")->bool_value());
  ASSERT_NE(response.Find("route"), nullptr);
  EXPECT_EQ(response.Find("route")->string_value(), "shard");
  ASSERT_NE(response.Find("id"), nullptr);
  EXPECT_EQ(response.Find("id")->string_value(), "q-7");
  EXPECT_NE(response.Find("path"), nullptr);
}

TEST_F(RouterTest, HaloAndFallbackStrategiesAreReportedAndAnswer) {
  LocalRig rig = MakeLocalRig();
  ASSERT_NE(rig.router, nullptr);
  const std::vector<api::ImputeRequest> requests = {HaloGap(),
                                                    CrossLaneGap()};
  const Json frame = MustParse(rig.router->HandleLine(
      server::EncodeImputeBatchRequest("", requests)));
  const Json* routes = frame.Find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->items().size(), 2u);
  EXPECT_EQ(routes->items()[0].string_value(), "halo");
  EXPECT_EQ(routes->items()[1].string_value(), "fallback");
  // Both paths produce protocol-valid per-request results (the lane is
  // dense, so imputation itself succeeds).
  const Json* results = frame.Find("results");
  ASSERT_EQ(results->items().size(), 2u);
  EXPECT_TRUE(results->items()[0].Find("ok")->bool_value());
  EXPECT_TRUE(results->items()[1].Find("ok")->bool_value());
  // The fallback answer equals the monolithic answer by construction.
  const std::vector<std::string> reference =
      MonolithicResults(*rig.router, requests);
  EXPECT_EQ(results->items()[1].Dump(), reference[1]);
}

TEST_F(RouterTest, ShardAndHaloRequestsSharingAShardKeepTheirOwnRoutes) {
  LocalRig rig = MakeLocalRig();
  ASSERT_NE(rig.router, nullptr);
  // A halo gap routes to its start endpoint's shard; an in-shard gap ending
  // at that same start lands in the same shard group.
  const api::ImputeRequest halo = HaloGap();
  const hex::CellId parent = ParentAt(halo.gap_start.lat, 11.0);
  api::ImputeRequest in_shard = halo;
  in_shard.gap_end = halo.gap_start;
  for (int k = 1; k <= 20; ++k) {
    const double north = halo.gap_start.lat + k * 0.0005;
    const double south = halo.gap_start.lat - k * 0.0005;
    in_shard.gap_start.lat = ParentAt(north, 11.0) == parent ? north : south;
    if (ParentAt(in_shard.gap_start.lat, 11.0) == parent) break;
  }
  ASSERT_EQ(ParentAt(in_shard.gap_start.lat, 11.0), parent);

  const Json frame = MustParse(rig.router->HandleLine(
      server::EncodeImputeBatchRequest(
          "", std::vector<api::ImputeRequest>{in_shard, halo})));
  const Json* routes = frame.Find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->items().size(), 2u);
  EXPECT_EQ(routes->items()[0].string_value(), "shard");
  EXPECT_EQ(routes->items()[1].string_value(), "halo");
}

TEST_F(RouterTest, RouterRejectsModelFieldAndMethodsOp) {
  LocalRig rig = MakeLocalRig();
  ASSERT_NE(rig.router, nullptr);
  const std::vector<api::ImputeRequest> one = {InShardGap()};
  const Json named = MustParse(rig.router->HandleLine(
      server::EncodeImputeBatchRequest("habit", one)));
  EXPECT_FALSE(named.Find("ok")->bool_value());
  EXPECT_NE(named.Find("error")->Find("message")->string_value().find(
                "drop the \"model\" field"),
            std::string::npos);
  const Json methods =
      MustParse(rig.router->HandleLine("{\"op\":\"methods\"}"));
  EXPECT_FALSE(methods.Find("ok")->bool_value());
  // Ping still answers (health checks hit the router directly).
  const Json ping =
      MustParse(rig.router->HandleLine("{\"op\":\"ping\",\"id\":3}"));
  EXPECT_TRUE(ping.Find("ok")->bool_value());
  EXPECT_EQ(ping.Find("id")->number_value(), 3.0);
}

TEST_F(RouterTest, StatsReportPerShardTrafficAndStrategies) {
  LocalRig rig = MakeLocalRig();
  ASSERT_NE(rig.router, nullptr);
  size_t shard = 0;
  api::ImputeRequest in_shard = InShardGap(&shard);
  in_shard.vessel_id = 219000001;
  const std::vector<api::ImputeRequest> mixed = {in_shard, CrossLaneGap()};
  ASSERT_FALSE(
      rig.router->HandleLine(server::EncodeImputeBatchRequest("", mixed))
          .empty());
  const Json stats =
      MustParse(rig.router->HandleLine("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.Find("ok")->bool_value());
  EXPECT_EQ(stats.Find("parent_res")->number_value(), kParentRes);
  const Json* shards = stats.Find("shards");
  ASSERT_NE(shards, nullptr);
  // shards + the trailing fallback entry
  ASSERT_EQ(shards->items().size(), manifest_->shards.size() + 1);
  const Json& hit = shards->items()[shard];
  EXPECT_EQ(hit.Find("cell")->string_value(),
            CellToHex(manifest_->shards[shard].parent_cell));
  EXPECT_EQ(hit.Find("requests")->number_value(), 1.0);
  EXPECT_EQ(hit.Find("degraded")->number_value(), 0.0);
  EXPECT_GE(hit.Find("latency_count")->number_value(), 1.0);
  ASSERT_NE(hit.Find("latency_p50_ms"), nullptr);
  const Json& fallback = shards->items()[manifest_->shards.size()];
  EXPECT_EQ(fallback.Find("cell")->string_value(), "fallback");
  EXPECT_EQ(fallback.Find("requests")->number_value(), 1.0);
  // HyperLogLog linear counting is near-exact, not exact, at tiny n.
  EXPECT_NEAR(stats.Find("distinct_vessels")->number_value(), 1.0, 0.01);
}

// ------------------------------------------------------------- degradation

// A loopback port with nothing listening: connects are refused
// immediately, so dead-backend tests run fast. Binding then closing
// reserves a port number that was just free.
uint16_t DeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

TEST_F(RouterTest, ShardBackendDownDegradesToFallback) {
  // Place the scanned gap's shard on a dead backend while the fallback
  // (backends.back()) stays live: a vector of shard+2 live backends with
  // slot `shard` swapped for a dead port. Under the i % size placement,
  // shard index `shard` < size maps to exactly that slot, and the last
  // slot — the fallback's — is live.
  size_t shard = 0;
  const api::ImputeRequest gap = InShardGap(&shard);

  server::ServerOptions server_options;
  server_options.cache_bytes = 1ull << 30;
  server::Server live_server(server_options);
  server::ClientOptions client_options;
  client_options.connect_timeout_ms = 1000;
  client_options.io_timeout_ms = 2000;
  auto dead = std::make_shared<RemoteBackend>(DeadPort(), client_options);
  auto live = std::make_shared<LocalBackend>(&live_server);
  std::vector<std::shared_ptr<ShardBackend>> backends(shard + 2, live);
  backends[shard] = dead;
  auto made = Router::Make(*manifest_, *dir_, backends);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Router& router = *made.value();

  const std::vector<api::ImputeRequest> requests = {gap};
  const Json frame = MustParse(
      router.HandleLine(server::EncodeImputeBatchRequest("", requests)));
  ASSERT_TRUE(frame.Find("ok")->bool_value());
  EXPECT_EQ(frame.Find("routes")->items()[0].string_value(), "degraded");
  // Degraded still answers correctly — and the fallback IS the
  // monolithic model, so the bytes match the reference exactly.
  const std::vector<std::string> reference =
      MonolithicResults(router, requests);
  EXPECT_EQ(frame.Find("results")->items()[0].Dump(), reference[0]);

  // The stats surface records the degradation against the planned shard.
  const Json stats = MustParse(router.HandleLine("{\"op\":\"stats\"}"));
  const Json& planned = stats.Find("shards")->items()[shard];
  EXPECT_EQ(planned.Find("degraded")->number_value(), 1.0);
}

TEST_F(RouterTest, AllBackendsDownYieldsPerRequestErrorsNotAFrameError) {
  server::ClientOptions client_options;
  client_options.connect_timeout_ms = 500;
  client_options.io_timeout_ms = 500;
  auto made = Router::Make(
      *manifest_, *dir_,
      {std::make_shared<RemoteBackend>(DeadPort(), client_options)},
      RouterOptions{});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Router& router = *made.value();

  // Batch: the frame itself stays ok:true; each request carries its own
  // error object, strategy "unavailable".
  const std::vector<api::ImputeRequest> requests = {InShardGap(),
                                                    CrossLaneGap()};
  const Json frame = MustParse(
      router.HandleLine(server::EncodeImputeBatchRequest("", requests)));
  ASSERT_TRUE(frame.Find("ok")->bool_value());
  for (size_t i = 0; i < 2; ++i) {
    const Json& result = frame.Find("results")->items()[i];
    EXPECT_FALSE(result.Find("ok")->bool_value());
    EXPECT_EQ(result.Find("error")->Find("code")->string_value(),
              "Unreachable");
    EXPECT_EQ(frame.Find("routes")->items()[i].string_value(),
              "unavailable");
  }
  // Single impute: ok:false with the error inline plus the route.
  Json single = Json::Object();
  single.Set("op", Json::String("impute"));
  single.Set("request", server::ImputeRequestToJson(InShardGap()));
  const Json response = MustParse(router.HandleLine(single.Dump()));
  EXPECT_FALSE(response.Find("ok")->bool_value());
  EXPECT_EQ(response.Find("route")->string_value(), "unavailable");
}

// -------------------------------------------------------- client deadlines

TEST(LineClientTest, RefusedConnectionSurfacesConnectError) {
  const uint16_t port = DeadPort();
  server::LineClient client(port, {.connect_timeout_ms = 1000});
  EXPECT_FALSE(client.connected());
  EXPECT_NE(client.last_error().find("connect"), std::string::npos)
      << client.last_error();
}

TEST(LineClientTest, ReadDeadlineFiresOnASilentPeer) {
  // A socket that listens but never accepts: the TCP handshake completes
  // from the kernel backlog, the request is buffered, and no byte ever
  // comes back — exactly the hung-backend case the router's IO deadline
  // exists for.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  server::LineClient client(
      ntohs(addr.sin_port),
      {.connect_timeout_ms = 1000, .io_timeout_ms = 100});
  ASSERT_TRUE(client.connected()) << client.last_error();
  std::string response;
  EXPECT_FALSE(client.Call("{\"op\":\"ping\"}", &response));
  EXPECT_EQ(client.last_error(), "read timed out");
  ::close(fd);
}

TEST(LineClientTest, RemoteBackendMapsTransportFailureToUnreachable) {
  RemoteBackend backend(DeadPort(),
                        {.connect_timeout_ms = 500, .io_timeout_ms = 500});
  auto result = backend.Call("{\"op\":\"ping\"}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnreachable);
  EXPECT_NE(result.status().message().find("port"), std::string::npos);
}

}  // namespace
}  // namespace habit::router
