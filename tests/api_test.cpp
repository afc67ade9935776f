// Tests for the unified imputation API: MethodSpec parsing, the model
// registry, each registered adapter end-to-end, and batch imputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>

#include "api/adapters.h"
#include "api/registry.h"
#include "geo/latlng.h"

namespace habit::api {
namespace {

// A small two-lane history: passengers sail lng=11.0, tankers lng=11.3.
// Dense reporting (60 s) over ~40 km keeps every method's graph connected.
std::vector<ais::Trip> MakeTrips() {
  std::vector<ais::Trip> trips;
  int64_t next_id = 1;
  for (const auto [type, lng] :
       {std::pair{ais::VesselType::kPassenger, 11.0},
        std::pair{ais::VesselType::kTanker, 11.3}}) {
    for (int t = 0; t < 10; ++t) {
      ais::Trip trip;
      trip.trip_id = next_id++;
      trip.mmsi = 100 * static_cast<int>(type) + t;
      trip.type = type;
      for (int i = 0; i < 120; ++i) {
        ais::AisRecord r;
        r.mmsi = trip.mmsi;
        r.ts = 1000000 + i * 60;
        r.pos = {55.0 + i * 0.003, lng + 0.0004 * (t % 3)};
        r.sog = 12.0;
        r.type = type;
        trip.points.push_back(r);
      }
      trips.push_back(trip);
    }
  }
  return trips;
}

// A trivial gap along the passenger lane (a handful of cells at r=9 —
// short enough that even PaLMTO's sampled generation finishes fast).
ImputeRequest LaneRequest() {
  ImputeRequest req;
  req.gap_start = {55.06, 11.0};
  req.gap_end = {55.075, 11.0};
  req.t_start = 1000000;
  req.t_end = 1003600;
  return req;
}

TEST(MethodSpecTest, ParsesNameOnly) {
  auto spec = MethodSpec::Parse("habit").MoveValue();
  EXPECT_EQ(spec.method, "habit");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.ToString(), "habit");
}

TEST(MethodSpecTest, ParamParsingRoundTrips) {
  auto spec = MethodSpec::Parse("habit:r=9,p=w").MoveValue();
  EXPECT_EQ(spec.method, "habit");
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params.at("r"), "9");
  EXPECT_EQ(spec.params.at("p"), "w");
  // Canonical form re-parses to the same spec.
  const std::string canonical = spec.ToString();
  auto reparsed = MethodSpec::Parse(canonical).MoveValue();
  EXPECT_EQ(reparsed.method, spec.method);
  EXPECT_EQ(reparsed.params, spec.params);
  EXPECT_EQ(reparsed.ToString(), canonical);
}

TEST(MethodSpecTest, RejectsMalformedSpecs) {
  EXPECT_EQ(MethodSpec::Parse("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MethodSpec::Parse(":r=9").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MethodSpec::Parse("habit:r").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MethodSpec::Parse("habit:r=").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MethodSpec::Parse("habit:=9").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MethodSpec::Parse("habit:r=9,,p=w").status().code(),
            StatusCode::kInvalidArgument);
  // Trailing comma and empty value are malformed, not silently dropped.
  EXPECT_EQ(MethodSpec::Parse("habit:r=9,").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MethodSpec::Parse("habit:p=").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MethodSpecTest, RejectsDuplicateKeys) {
  // Last-win would make "habit:r=9,r=10" canonicalize to "habit:r=10" —
  // two different user intents aliasing one ToString() cache key.
  auto dup = MethodSpec::Parse("habit:r=9,r=10");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
  // Same key, same value is still a duplicate.
  EXPECT_FALSE(MethodSpec::Parse("gti:rd=1e-4,rm=250,rd=1e-4").ok());
}

TEST(MethodSpecTest, TypedAccessors) {
  auto spec = MethodSpec::Parse("habit:r=9,t=250.5").MoveValue();
  EXPECT_EQ(spec.GetInt("r", 7).MoveValue(), 9);
  EXPECT_EQ(spec.GetInt("missing", 7).MoveValue(), 7);
  EXPECT_DOUBLE_EQ(spec.GetDouble("t", 0).MoveValue(), 250.5);
  // A non-numeric value fails loudly.
  auto bad = MethodSpec::Parse("habit:r=nine").MoveValue();
  EXPECT_EQ(bad.GetInt("r", 7).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, UnknownMethodIsInvalidArgument) {
  auto model = MakeModel("definitely_not_a_method", MakeTrips());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, OverflowingIntParameterRejected) {
  // Out of the int range, or out of a parameter's own range: the snap ring
  // radius is bounded by core::kMaxSnapRing (64).
  const auto trips = MakeTrips();
  for (const char* spec : {"habit:r=4294967296", "habit:snap=65",
                           "habit:snap=-1", "habit_typed:snap=65"}) {
    auto model = MakeModel(spec, trips);
    ASSERT_FALSE(model.ok()) << spec;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_TRUE(MakeModel("habit:snap=64", trips).ok());
  EXPECT_TRUE(MakeModel("habit:snap=0", trips).ok());
}

TEST(ApiTest, ValidateRequestContract) {
  EXPECT_TRUE(ValidateRequest(LaneRequest()).ok());

  // An empty time span is legal (no time model), negative is not.
  ImputeRequest no_span = LaneRequest();
  no_span.t_start = no_span.t_end = 0;
  EXPECT_TRUE(ValidateRequest(no_span).ok());
  ImputeRequest negative_span = LaneRequest();
  negative_span.t_end = negative_span.t_start - 1;
  EXPECT_EQ(ValidateRequest(negative_span).code(),
            StatusCode::kInvalidArgument);

  // Out-of-range and non-finite coordinates, in any slot.
  for (const double bad_lat : {91.0, -91.0,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    ImputeRequest bad = LaneRequest();
    bad.gap_start.lat = bad_lat;
    EXPECT_EQ(ValidateRequest(bad).code(), StatusCode::kInvalidArgument)
        << bad_lat;
    ImputeRequest bad_end = LaneRequest();
    bad_end.gap_end.lat = bad_lat;
    EXPECT_EQ(ValidateRequest(bad_end).code(), StatusCode::kInvalidArgument);
  }
  ImputeRequest bad_lng = LaneRequest();
  bad_lng.gap_end.lng = 181.0;
  EXPECT_EQ(ValidateRequest(bad_lng).code(), StatusCode::kInvalidArgument);
}

TEST(ApiTest, TimestampsPastTwoToThe53AreRefusedPerRequest) {
  // |t| is bounded by 2^53 (what a JSON number holds exactly) for every
  // caller, so t_end - t_start cannot overflow int64_t when timestamps are
  // interpolated. The bounds themselves are legal and interpolate cleanly.
  ImputeRequest widest = LaneRequest();
  widest.t_start = -kMaxAbsTimestamp;
  widest.t_end = kMaxAbsTimestamp;
  EXPECT_TRUE(ValidateRequest(widest).ok());
  ImputeRequest extreme = LaneRequest();
  extreme.t_start = std::numeric_limits<int64_t>::min();
  extreme.t_end = std::numeric_limits<int64_t>::max();
  ImputeRequest late_end = LaneRequest();
  late_end.t_end = kMaxAbsTimestamp + 1;
  ImputeRequest early_start = LaneRequest();
  early_start.t_start = -kMaxAbsTimestamp - 1;
  for (const ImputeRequest& bad : {extreme, late_end, early_start}) {
    const Status status = ValidateRequest(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("2^53"), std::string::npos)
        << status.ToString();
  }

  // In a batch, the bad request gets its own error and its neighbours are
  // answered.
  auto model = MakeModel("habit", MakeTrips()).MoveValue();
  const std::vector<ImputeRequest> batch = {extreme, LaneRequest(), widest};
  const auto responses = model->ImputeBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(responses[0].status().message().find("2^53"), std::string::npos);
  for (const size_t i : {size_t{1}, size_t{2}}) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    const std::vector<int64_t>& ts = responses[i].value().timestamps;
    ASSERT_GE(ts.size(), 2u);
    EXPECT_EQ(ts.front(), batch[i].t_start);
    EXPECT_EQ(ts.back(), batch[i].t_end);
    EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  }
}

TEST(ApiTest, InvalidRequestsRejectedConsistently) {
  const auto trips = MakeTrips();
  ImputeRequest bad_coords = LaneRequest();
  bad_coords.gap_start = {999.0, 999.0};
  ImputeRequest nan_coords = LaneRequest();
  nan_coords.gap_end.lng = std::numeric_limits<double>::quiet_NaN();
  ImputeRequest bad_span = LaneRequest();
  bad_span.t_end = bad_span.t_start - 3600;
  for (const char* spec :
       {"habit", "habit_typed", "gti", "palmto:r=8", "sli"}) {
    auto model = MakeModel(spec, trips).MoveValue();
    for (const ImputeRequest& bad : {bad_coords, nan_coords, bad_span}) {
      auto response = model->Impute(bad);
      ASSERT_FALSE(response.ok()) << spec;
      EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
          << spec;
      // The batch path rejects per-query, and a garbage query must not
      // poison its neighbors.
      const std::vector<ImputeRequest> batch = {LaneRequest(), bad,
                                                LaneRequest()};
      const auto responses = model->ImputeBatch(batch);
      ASSERT_EQ(responses.size(), 3u);
      EXPECT_TRUE(responses[0].ok()) << spec << ": "
                                     << responses[0].status().ToString();
      EXPECT_EQ(responses[1].status().code(), StatusCode::kInvalidArgument)
          << spec;
      EXPECT_TRUE(responses[2].ok()) << spec;
    }
  }
}

TEST(RegistryTest, UnknownParameterIsInvalidArgument) {
  const auto trips = MakeTrips();
  for (const char* spec :
       {"habit:bogus=1", "habit_typed:bogus=1", "gti:bogus=1",
        "palmto:bogus=1", "sli:bogus=1"}) {
    auto model = MakeModel(spec, trips);
    ASSERT_FALSE(model.ok()) << spec;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(RegistryTest, ListsAllBuiltinMethods) {
  const auto names = ModelRegistry::Global().MethodNames();
  for (const char* expected :
       {"habit", "habit_typed", "gti", "palmto", "sli"}) {
    EXPECT_TRUE(ModelRegistry::Global().Has(expected)) << expected;
    EXPECT_NE(ModelRegistry::Global().Description(expected), "") << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
  }
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  ModelRegistry registry;
  auto factory = [](const MethodSpec&, const std::vector<ais::Trip>&)
      -> Result<std::unique_ptr<ImputationModel>> {
    return Status::Internal("unused");
  };
  EXPECT_TRUE(registry.Register("m", "a method", factory).ok());
  EXPECT_EQ(registry.Register("m", "again", factory).code(),
            StatusCode::kAlreadyExists);
}

TEST(ApiTest, EveryRegisteredMethodImputesATrivialGap) {
  const auto trips = MakeTrips();
  const ImputeRequest req = LaneRequest();
  for (const std::string& name : ModelRegistry::Global().MethodNames()) {
    // PaLMTO needs coarse tokens for reliable generation (as in the
    // paper's setup and baselines_test); everything else runs defaults.
    const std::string spec =
        name == "palmto" ? "palmto:r=8,timeout=5" : name;
    auto model_result = MakeModel(spec, trips);
    ASSERT_TRUE(model_result.ok())
        << name << ": " << model_result.status().ToString();
    const auto& model = model_result.value();
    EXPECT_NE(model->Name(), "") << name;
    EXPECT_NE(model->Configuration(), "") << name;

    auto response = model->Impute(req);
    ASSERT_TRUE(response.ok())
        << name << ": " << response.status().ToString();
    const geo::Polyline& path = response.value().path;
    ASSERT_GE(path.size(), 2u) << name;
    // The path connects the gap endpoints (within a cell's width).
    EXPECT_LT(geo::HaversineMeters(path.front(), req.gap_start), 1000.0)
        << name;
    EXPECT_LT(geo::HaversineMeters(path.back(), req.gap_end), 1000.0)
        << name;
    // Timestamps, when assigned, span the gap and align with the path.
    if (!response.value().timestamps.empty()) {
      EXPECT_EQ(response.value().timestamps.size(), path.size()) << name;
      EXPECT_GE(response.value().timestamps.front(), req.t_start) << name;
      EXPECT_LE(response.value().timestamps.back(), req.t_end) << name;
    }

    // Batch imputation answers every request, aligned with the input, and
    // reports per-query latency.
    const std::vector<ImputeRequest> requests(3, req);
    std::vector<double> query_seconds;
    const auto batch = model->ImputeBatch(requests, &query_seconds);
    ASSERT_EQ(batch.size(), requests.size()) << name;
    ASSERT_EQ(query_seconds.size(), requests.size()) << name;
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << name << ": "
                                 << batch[i].status().ToString();
      EXPECT_GE(batch[i].value().path.size(), 2u) << name;
      EXPECT_GT(query_seconds[i], 0.0) << name;
    }
  }
}

TEST(ApiTest, BatchMatchesSingleQueries) {
  const auto trips = MakeTrips();
  auto model = MakeModel("habit:r=9,t=0", trips).MoveValue();

  std::vector<ImputeRequest> requests;
  for (int i = 0; i < 6; ++i) {
    ImputeRequest req;
    req.gap_start = {55.05 + 0.01 * i, 11.0};
    req.gap_end = {55.15 + 0.02 * i, 11.0};
    req.t_start = 1000000;
    req.t_end = 1003600;
    requests.push_back(req);
  }
  std::vector<double> query_seconds;
  const auto batch = model->ImputeBatch(requests, &query_seconds);
  ASSERT_EQ(batch.size(), requests.size());
  ASSERT_EQ(query_seconds.size(), requests.size());

  // The scratch-reusing batch path must produce exactly the single-query
  // paths, response by response.
  for (size_t i = 0; i < requests.size(); ++i) {
    auto single = model->Impute(requests[i]);
    ASSERT_EQ(single.ok(), batch[i].ok()) << i;
    if (!single.ok()) continue;
    ASSERT_EQ(single.value().path.size(), batch[i].value().path.size()) << i;
    for (size_t j = 0; j < single.value().path.size(); ++j) {
      EXPECT_EQ(single.value().path[j], batch[i].value().path[j]);
    }
    EXPECT_EQ(single.value().timestamps, batch[i].value().timestamps);
    EXPECT_GT(query_seconds[i], 0.0);
  }
}

// A batch of n gaps over both lanes, some typed and some not, with three
// bad requests interleaved once n >= 3: a non-finite coordinate, a
// negative time span, and an off-data gap no graph can reach.
std::vector<ImputeRequest> MixedBatch(size_t n) {
  std::vector<ImputeRequest> requests(n);
  for (size_t i = 0; i < n; ++i) {
    ImputeRequest& req = requests[i];
    const bool tanker = i % 2 == 1;
    const double lng = tanker ? 11.3 : 11.0;
    req.gap_start = {55.02 + 0.004 * static_cast<double>(i % 10), lng};
    req.gap_end = {req.gap_start.lat + 0.05 + 0.01 * static_cast<double>(i % 5),
                   lng};
    req.t_start = 1000000;
    req.t_end = 1003600 + static_cast<int64_t>(i);
    if (i % 3 != 0) {
      req.vessel_type =
          tanker ? ais::VesselType::kTanker : ais::VesselType::kPassenger;
    }
  }
  if (n >= 3) {
    requests[n / 4].gap_start.lat = std::numeric_limits<double>::quiet_NaN();
    requests[n / 2].t_end = requests[n / 2].t_start - 1;
    requests[3 * n / 4].gap_start = {40.0, -20.0};
    requests[3 * n / 4].gap_end = {40.5, -20.0};
    requests[3 * n / 4].vessel_type.reset();
  }
  return requests;
}

// `got` answers exactly what `want` does: status code and message, path
// doubles bit for bit, timestamps and `expanded`; `seconds` has one
// positive entry per request.
void ExpectSameAnswers(const std::vector<Result<ImputeResponse>>& want,
                       const std::vector<Result<ImputeResponse>>& got,
                       const std::vector<double>& seconds) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(seconds.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_GT(seconds[i], 0.0) << i;
    ASSERT_EQ(got[i].ok(), want[i].ok()) << i;
    if (!want[i].ok()) {
      EXPECT_EQ(got[i].status().code(), want[i].status().code()) << i;
      EXPECT_EQ(got[i].status().message(), want[i].status().message()) << i;
      continue;
    }
    const ImputeResponse& w = want[i].value();
    const ImputeResponse& g = got[i].value();
    ASSERT_EQ(g.path.size(), w.path.size()) << i;
    for (size_t j = 0; j < w.path.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(g.path[j].lat),
                std::bit_cast<uint64_t>(w.path[j].lat))
          << i << "/" << j;
      EXPECT_EQ(std::bit_cast<uint64_t>(g.path[j].lng),
                std::bit_cast<uint64_t>(w.path[j].lng))
          << i << "/" << j;
    }
    EXPECT_EQ(g.timestamps, w.timestamps) << i;
    EXPECT_EQ(g.expanded, w.expanded) << i;
  }
}

// The reference answers: one serial Impute per request, which no batch
// ordering or worker can touch.
std::vector<Result<ImputeResponse>> OneByOne(
    const ImputationModel& model, const std::vector<ImputeRequest>& requests) {
  std::vector<Result<ImputeResponse>> out;
  for (const ImputeRequest& request : requests) {
    out.push_back(model.Impute(request));
  }
  return out;
}

// A worker source running `body` on up to `cap` spawned threads.
ImputationModel::WorkerSource SpawningSource(size_t cap) {
  return [cap](size_t max_workers, const std::function<void()>& body) {
    std::vector<std::thread> threads;
    for (size_t w = 0; w < std::min(cap, max_workers); ++w) {
      threads.emplace_back(body);
    }
    for (std::thread& t : threads) t.join();
    return Status::OK();
  };
}

TEST(ApiTest, ParallelBatchMatchesSerialBatch) {
  // However many workers claim from the batch cursor, and from whichever
  // source they come, every answer equals the serial model's one-by-one
  // answer, aligned with the input, per-query failures included.
  const auto trips = MakeTrips();
  for (const std::string method : {"habit", "habit_typed"}) {
    const std::string base = method + ":r=9,t=0";
    auto serial = MakeModel(base, trips).MoveValue();
    for (const int threads : {2, 3, 4, 7, 64}) {
      auto parallel =
          MakeModel(base + ",threads=" + std::to_string(threads), trips)
              .MoveValue();
      for (const size_t n : {0, 1, 3, 40}) {
        SCOPED_TRACE(method + " threads=" + std::to_string(threads) +
                     " n=" + std::to_string(n));
        const std::vector<ImputeRequest> requests = MixedBatch(n);
        std::vector<double> got_seconds;
        const auto want = OneByOne(*serial, requests);
        // The fixture really mixes answers and failures: only the three
        // bad requests fail.
        const size_t failed = static_cast<size_t>(
            std::count_if(want.begin(), want.end(),
                          [](const auto& r) { return !r.ok(); }));
        EXPECT_EQ(failed, n >= 3 ? 3u : 0u);
        ExpectSameAnswers(want,
                          parallel->ImputeBatch(requests, &got_seconds),
                          got_seconds);
        ExpectSameAnswers(want, serial->ImputeBatch(requests, &got_seconds),
                          got_seconds);
      }
    }

    const std::vector<ImputeRequest> requests = MixedBatch(40);
    const auto want = OneByOne(*serial, requests);
    {
      // Three callers share one threads=4 model at once: the cursor and
      // the scratches belong to each call, never to the model.
      SCOPED_TRACE(method + " shared by three callers");
      auto shared = MakeModel(base + ",threads=4", trips).MoveValue();
      std::vector<std::vector<Result<ImputeResponse>>> got(3);
      std::vector<std::vector<double>> seconds(3);
      std::vector<std::thread> callers;
      for (size_t c = 0; c < got.size(); ++c) {
        callers.emplace_back([&, c] {
          got[c] = shared->ImputeBatch(requests, &seconds[c]);
        });
      }
      for (std::thread& t : callers) t.join();
      for (size_t c = 0; c < got.size(); ++c) {
        ExpectSameAnswers(want, got[c], seconds[c]);
      }
    }
    {
      // A source that runs the body once: that one worker claims it all.
      SCOPED_TRACE(method + " single-call source");
      std::vector<double> seconds;
      const auto got = serial->ImputeBatch(
          requests, &seconds,
          [](size_t, const std::function<void()>& body) {
            body();
            return Status::OK();
          });
      ExpectSameAnswers(want, got, seconds);
    }
    {
      // A source that fails without running the body fails every request
      // with its status, and the timings stay aligned.
      SCOPED_TRACE(method + " failing source");
      std::vector<double> seconds;
      const auto got = serial->ImputeBatch(
          requests, &seconds, [](size_t, const std::function<void()>&) {
            return Status::Internal("no workers");
          });
      ASSERT_EQ(got.size(), requests.size());
      ASSERT_EQ(seconds.size(), requests.size());
      for (const auto& result : got) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kInternal);
        EXPECT_EQ(result.status().message(), "no workers");
      }
    }
  }

  // The baselines run through the same executor.
  for (const std::string spec : {"gti", "palmto:r=8,timeout=5", "sli"}) {
    SCOPED_TRACE(spec);
    auto model = MakeModel(spec, trips).MoveValue();
    const std::vector<ImputeRequest> requests = MixedBatch(12);
    std::vector<double> got_seconds;
    const auto want = OneByOne(*model, requests);
    ExpectSameAnswers(
        want, model->ImputeBatch(requests, &got_seconds, SpawningSource(4)),
        got_seconds);
  }

  // Degenerate parameters are rejected loudly.
  EXPECT_FALSE(MakeModel("habit:threads=0", trips).ok());
  EXPECT_FALSE(MakeModel("habit:threads=-2", trips).ok());
}

TEST(ApiTest, BatchReportsPerQueryFailures) {
  const auto trips = MakeTrips();
  auto model = MakeModel("habit", trips).MoveValue();
  std::vector<ImputeRequest> requests(3, LaneRequest());
  // Middle request is far outside the data: it alone must fail.
  requests[1].gap_start = {40.0, -20.0};
  requests[1].gap_end = {40.5, -20.0};
  const auto batch = model->ImputeBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
  EXPECT_TRUE(batch[2].ok());
}

TEST(ApiTest, TypedModelRoutesByVesselType) {
  const auto trips = MakeTrips();
  auto model = MakeModel("habit_typed:t=0", trips).MoveValue();

  // A tanker query on the tanker lane stays on lng ~11.3.
  ImputeRequest req;
  req.gap_start = {55.06, 11.3};
  req.gap_end = {55.30, 11.3};
  req.vessel_type = ais::VesselType::kTanker;
  auto tanker = model->Impute(req);
  ASSERT_TRUE(tanker.ok()) << tanker.status().ToString();
  for (const geo::LatLng& p : tanker.value().path) {
    EXPECT_NEAR(p.lng, 11.3, 0.02);
  }

  // Without a vessel type the combined graph answers.
  req.vessel_type.reset();
  EXPECT_TRUE(model->Impute(req).ok());
}

TEST(ApiTest, ModelsReportFootprintsAndBuildTime) {
  const auto trips = MakeTrips();
  for (const char* spec : {"habit", "gti", "palmto"}) {
    auto model = MakeModel(spec, trips).MoveValue();
    EXPECT_GT(model->SizeBytes(), 0u) << spec;
    EXPECT_GT(model->SerializedSizeBytes(), 0u) << spec;
    EXPECT_GT(model->BuildSeconds(), 0.0) << spec;
  }
  auto sli = MakeModel("sli", trips).MoveValue();
  EXPECT_EQ(sli->SizeBytes(), 0u);
}

TEST(ApiTest, HabitModelExposesFramework) {
  const auto trips = MakeTrips();
  auto model = MakeModel("habit:r=8", trips).MoveValue();
  const auto* habit_model = dynamic_cast<const HabitModel*>(model.get());
  ASSERT_NE(habit_model, nullptr);
  EXPECT_EQ(habit_model->framework().config().resolution, 8);
  EXPECT_GT(habit_model->framework().graph().num_nodes(), 0u);
}

TEST(ApiTest, SnapshotSpecParamsColdStartEveryMethod) {
  // The snapshot-equality contract at the registry level: for every
  // snapshot-capable method, build with save=<path>, cold-start with
  // load=<path> and ZERO trips, and require bit-identical imputation
  // output and identical in-memory footprint vs the trained model.
  const auto trips = MakeTrips();
  const ImputeRequest req = LaneRequest();
  struct Case {
    const char* build_spec;  ///< trained model, trailing save= appended
    const char* load_spec;   ///< cold start, trailing load= appended
  };
  for (const auto& [build_spec, load_spec] :
       {Case{"habit:r=9", "habit:load="},
        Case{"gti:rd=1e-3", "gti:load="},
        Case{"palmto:r=8,timeout=5", "palmto:load="}}) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "api_snapshot.snap")
            .string();
    auto built =
        MakeModel(std::string(build_spec) + ",save=" + path, trips);
    ASSERT_TRUE(built.ok()) << build_spec << ": "
                            << built.status().ToString();
    auto loaded = MakeModel(std::string(load_spec) + path, {});
    ASSERT_TRUE(loaded.ok()) << load_spec << ": "
                             << loaded.status().ToString();

    EXPECT_EQ(loaded.value()->Name(), built.value()->Name());
    EXPECT_EQ(loaded.value()->Configuration(),
              built.value()->Configuration());
    EXPECT_EQ(loaded.value()->SizeBytes(), built.value()->SizeBytes())
        << build_spec;

    auto want = built.value()->Impute(req);
    auto got = loaded.value()->Impute(req);
    ASSERT_EQ(want.ok(), got.ok()) << build_spec;
    if (want.ok()) {
      EXPECT_EQ(want.value().path, got.value().path) << build_spec;
      EXPECT_EQ(want.value().timestamps, got.value().timestamps)
          << build_spec;
    }
    std::remove(path.c_str());
  }
}

TEST(ApiTest, SnapshotSpecParamErrors) {
  const auto trips = MakeTrips();
  // load= from a missing file fails loudly for every method.
  for (const char* spec :
       {"habit:load=/nonexistent/model.snap",
        "gti:load=/nonexistent/model.snap",
        "palmto:load=/nonexistent/model.snap"}) {
    EXPECT_FALSE(MakeModel(spec, trips).ok()) << spec;
  }
  // save= to an unwritable path surfaces the I/O error instead of
  // silently serving an unpersisted model.
  EXPECT_FALSE(
      MakeModel("habit:r=8,save=/nonexistent/dir/model.snap", trips).ok());
  // Build parameters alongside load= are rejected — every snapshot embeds
  // its build configuration, so "gti:rd=1e-4,load=..." or
  // "habit:r=9,load=..." would alias two different models.
  const std::string path =
      (std::filesystem::temp_directory_path() / "api_spec_err.snap")
          .string();
  ASSERT_TRUE(MakeModel("gti:rd=1e-3,save=" + path, trips).ok());
  auto conflicting = MakeModel("gti:rd=1e-4,load=" + path, {});
  ASSERT_FALSE(conflicting.ok());
  EXPECT_EQ(conflicting.status().code(), StatusCode::kInvalidArgument);
  // A wrong-kind snapshot is rejected by the loader, not misparsed.
  EXPECT_FALSE(MakeModel("palmto:load=" + path, {}).ok());

  // PaLMTO's query budgets are serving parameters: they compose with
  // load= (unlike the build params r= and n=).
  const std::string palmto_path =
      (std::filesystem::temp_directory_path() / "api_spec_err_palmto.snap")
          .string();
  ASSERT_TRUE(MakeModel("palmto:r=8,save=" + palmto_path, trips).ok());
  EXPECT_TRUE(
      MakeModel("palmto:timeout=9,max_tokens=128,load=" + palmto_path, {})
          .ok());
  EXPECT_FALSE(MakeModel("palmto:r=8,load=" + palmto_path, {}).ok());
  std::remove(palmto_path.c_str());

  const std::string habit_path =
      (std::filesystem::temp_directory_path() / "api_spec_err_habit.snap")
          .string();
  ASSERT_TRUE(MakeModel("habit:r=8,save=" + habit_path, trips).ok());
  auto habit_conflicting = MakeModel("habit:r=8,load=" + habit_path, {});
  ASSERT_FALSE(habit_conflicting.ok());
  EXPECT_EQ(habit_conflicting.status().code(),
            StatusCode::kInvalidArgument);
  // Serving parameters are not build parameters: threads= composes with
  // load=, and the loaded model serves at the snapshot's resolution.
  auto threaded = MakeModel("habit:threads=2,load=" + habit_path, {});
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  const auto* habit_model =
      dynamic_cast<const HabitModel*>(threaded.value().get());
  ASSERT_NE(habit_model, nullptr);
  EXPECT_EQ(habit_model->framework().config().resolution, 8);
  std::remove(path.c_str());
  std::remove(habit_path.c_str());
}

TEST(ApiTest, MappedLoadIsBitIdenticalToCopyLoadEveryMethod) {
  // The zero-copy serving contract: for every snapshot-capable method,
  // "m:load=p,map=1" must be observationally identical to "m:load=p" —
  // same batch output bit for bit, same SizeBytes — with the only
  // difference being where the arrays live (mapped file vs heap).
  const auto trips = MakeTrips();
  std::vector<ImputeRequest> requests;
  requests.push_back(LaneRequest());
  {
    ImputeRequest far = LaneRequest();
    far.gap_end = {55.2, 11.0};
    requests.push_back(far);
    ImputeRequest cross = LaneRequest();
    cross.gap_end = {55.08, 11.3};  // lane change: usually unreachable
    requests.push_back(cross);
  }
  for (const char* build_spec :
       {"habit:r=9", "gti:rd=1e-3", "palmto:r=8,timeout=5"}) {
    const std::string method =
        std::string(build_spec).substr(0, std::string(build_spec).find(':'));
    const std::string path =
        (std::filesystem::temp_directory_path() / (method + "_map.snap"))
            .string();
    ASSERT_TRUE(
        MakeModel(std::string(build_spec) + ",save=" + path, trips).ok())
        << build_spec;
    auto copied = MakeModel(method + ":load=" + path, {});
    auto mapped = MakeModel(method + ":load=" + path + ",map=1", {});
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(mapped.value()->SizeBytes(), copied.value()->SizeBytes())
        << build_spec;
    EXPECT_EQ(mapped.value()->Configuration(),
              copied.value()->Configuration())
        << build_spec;

    const auto want = copied.value()->ImputeBatch(requests);
    const auto got = mapped.value()->ImputeBatch(requests);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].ok(), got[i].ok()) << build_spec << " request " << i;
      if (want[i].ok()) {
        EXPECT_EQ(want[i].value().path, got[i].value().path)
            << build_spec << " request " << i;
        EXPECT_EQ(want[i].value().timestamps, got[i].value().timestamps)
            << build_spec << " request " << i;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(ApiTest, MapSpecParamErrors) {
  const auto trips = MakeTrips();
  // map= without load= is meaningless for every snapshot-capable method.
  for (const char* spec : {"habit:map=1", "gti:map=1", "palmto:map=1",
                           "habit:r=9,map=0"}) {
    auto model = MakeModel(spec, trips);
    ASSERT_FALSE(model.ok()) << spec;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // map=1 over a missing snapshot surfaces the I/O error.
  EXPECT_FALSE(MakeModel("habit:load=/nonexistent/m.snap,map=1", {}).ok());
  // Build params are still rejected alongside load= when map= is present.
  const std::string path =
      (std::filesystem::temp_directory_path() / "api_map_err.snap").string();
  ASSERT_TRUE(MakeModel("habit:r=8,save=" + path, trips).ok());
  EXPECT_FALSE(MakeModel("habit:r=8,load=" + path + ",map=1", {}).ok());
  // map composes with other serving params (threads=).
  EXPECT_TRUE(
      MakeModel("habit:threads=2,load=" + path + ",map=1", {}).ok());
  std::remove(path.c_str());
}

TEST(ApiTest, AltServingIsByteIdenticalToBaseline) {
  // The ALT acceleration contract at the API boundary: a snapshot saved
  // with landmarks= served with alt=1 (heap or mapped) must produce
  // byte-identical imputations to the same snapshot served without —
  // landmarks change search effort, never output.
  const auto trips = MakeTrips();
  const std::string path =
      (std::filesystem::temp_directory_path() / "api_alt.snap").string();
  ASSERT_TRUE(
      MakeModel("habit:r=9,landmarks=8,save=" + path, trips).ok());

  std::vector<ImputeRequest> requests;
  requests.push_back(LaneRequest());
  {
    ImputeRequest far = LaneRequest();
    far.gap_end = {55.2, 11.0};  // the long gap, where ALT matters
    requests.push_back(far);
    ImputeRequest cross = LaneRequest();
    cross.gap_end = {55.08, 11.3};  // lane change: usually unreachable
    requests.push_back(cross);
  }

  auto baseline = MakeModel("habit:load=" + path, {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const auto want = baseline.value()->ImputeBatch(requests);
  for (const char* serve_params : {",alt=1", ",alt=1,map=1"}) {
    auto alt = MakeModel("habit:load=" + path + serve_params, {});
    ASSERT_TRUE(alt.ok()) << alt.status().ToString();
    const auto got = alt.value()->ImputeBatch(requests);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].ok(), got[i].ok())
          << serve_params << " request " << i;
      if (want[i].ok()) {
        EXPECT_EQ(want[i].value().path, got[i].value().path)
            << serve_params << " request " << i;
        EXPECT_EQ(want[i].value().timestamps, got[i].value().timestamps)
            << serve_params << " request " << i;
      }
    }
  }

  // The landmark columns are part of the model footprint (the ModelCache
  // budgets against SizeBytes): the same build saved without landmarks
  // must be strictly smaller.
  const std::string plain_path =
      (std::filesystem::temp_directory_path() / "api_alt_plain.snap")
          .string();
  ASSERT_TRUE(MakeModel("habit:r=9,save=" + plain_path, trips).ok());
  auto plain = MakeModel("habit:load=" + plain_path, {});
  ASSERT_TRUE(plain.ok());
  EXPECT_GT(baseline.value()->SizeBytes(), plain.value()->SizeBytes());
  std::remove(path.c_str());
  std::remove(plain_path.c_str());
}

TEST(ApiTest, AltAndLandmarksSpecParamErrors) {
  const auto trips = MakeTrips();
  // landmarks= is save-time precomputation: without save= it is a spec
  // error, and the count must stay within the format's cap.
  for (const char* spec :
       {"habit:r=9,landmarks=8", "habit:landmarks=8"}) {
    auto model = MakeModel(spec, trips);
    ASSERT_FALSE(model.ok()) << spec;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "api_alt_err.snap")
          .string();
  EXPECT_FALSE(
      MakeModel("habit:r=9,landmarks=0,save=" + path, trips).ok());
  EXPECT_FALSE(
      MakeModel("habit:r=9,landmarks=65,save=" + path, trips).ok());
  // alt= is a serving parameter: it requires load= (only a snapshot can
  // carry landmark columns).
  for (const char* spec : {"habit:r=9,alt=1", "habit:alt=1"}) {
    auto model = MakeModel(spec, trips);
    ASSERT_FALSE(model.ok()) << spec;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  ASSERT_TRUE(
      MakeModel("habit:r=9,landmarks=8,save=" + path, trips).ok());
  // landmarks= alongside load= is a build-param conflict like r=.
  EXPECT_FALSE(MakeModel("habit:landmarks=8,load=" + path, {}).ok());
  // alt composes with the other serving params.
  EXPECT_TRUE(
      MakeModel("habit:threads=2,alt=1,map=1,load=" + path, {}).ok());
  // alt=1 over a landmark-less snapshot degrades silently (zero
  // heuristic), it does not fail.
  const std::string plain_path =
      (std::filesystem::temp_directory_path() / "api_alt_err_plain.snap")
          .string();
  ASSERT_TRUE(MakeModel("habit:r=9,save=" + plain_path, trips).ok());
  auto degraded = MakeModel("habit:alt=1,load=" + plain_path, {});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value()->Impute(LaneRequest()).ok());
  std::remove(path.c_str());
  std::remove(plain_path.c_str());
}

}  // namespace
}  // namespace habit::api
