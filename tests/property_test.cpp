// Cross-module property sweeps: randomized invariants that complement the
// per-module unit tests (grid-path correctness, geodesic consistency,
// CTE-vs-brute-force equivalence, end-to-end imputation invariants).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/rng.h"
#include "eval/harness.h"
#include "geo/similarity.h"
#include "habit/framework.h"
#include "habit/graph_builder.h"
#include "hexgrid/hexgrid.h"
#include "minidb/table.h"

namespace habit {
namespace {

class GridPathPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GridPathPropertyTest, RandomPairsYieldMinimalAdjacentPaths) {
  const int res = GetParam();
  Rng rng(1000 + res);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::LatLng a{rng.Uniform(54, 58), rng.Uniform(9, 13)};
    const geo::LatLng b{rng.Uniform(54, 58), rng.Uniform(9, 13)};
    const hex::CellId ca = hex::LatLngToCell(a, res);
    const hex::CellId cb = hex::LatLngToCell(b, res);
    auto path = hex::GridPathCells(ca, cb);
    ASSERT_TRUE(path.ok());
    const auto& cells = path.value();
    ASSERT_GE(cells.size(), 1u);
    EXPECT_EQ(cells.front(), ca);
    EXPECT_EQ(cells.back(), cb);
    for (size_t i = 1; i < cells.size(); ++i) {
      EXPECT_EQ(hex::GridDistance(cells[i - 1], cells[i]).value(), 1);
    }
    EXPECT_EQ(static_cast<int64_t>(cells.size()) - 1,
              hex::GridDistance(ca, cb).value());
    // No repeated cells on a shortest hex line.
    std::set<hex::CellId> unique(cells.begin(), cells.end());
    EXPECT_EQ(unique.size(), cells.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridPathPropertyTest,
                         ::testing::Values(5, 7, 8));

TEST(GeodesicPropertyTest, BearingDistanceDestinationConsistency) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const geo::LatLng a{rng.Uniform(-70, 70), rng.Uniform(-179, 179)};
    const double bearing = rng.Uniform(0, 360);
    const double dist = rng.Uniform(10, 200000);
    const geo::LatLng b = geo::Destination(a, bearing, dist);
    // Distance consistency.
    EXPECT_NEAR(geo::HaversineMeters(a, b), dist, dist * 1e-6 + 0.01);
    // Bearing consistency (initial bearing from a to b equals the bearing
    // used, modulo numerical noise on short arcs).
    EXPECT_NEAR(geo::BearingDiffDeg(geo::InitialBearingDeg(a, b), bearing),
                0.0, 0.5);
  }
}

TEST(GeodesicPropertyTest, IntermediateLiesOnSegment) {
  Rng rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::LatLng a{rng.Uniform(-60, 60), rng.Uniform(-170, 170)};
    const geo::LatLng b{rng.Uniform(-60, 60), rng.Uniform(-170, 170)};
    const double f = rng.Uniform(0.0, 1.0);
    const geo::LatLng mid = geo::Intermediate(a, b, f);
    const double total = geo::HaversineMeters(a, b);
    EXPECT_NEAR(geo::HaversineMeters(a, mid), f * total,
                total * 1e-6 + 0.01);
    EXPECT_NEAR(geo::HaversineMeters(mid, b), (1 - f) * total,
                total * 1e-6 + 0.01);
  }
}

TEST(DtwPropertyTest, TranslationIncreasesScoreMonotonically) {
  Rng rng(79);
  geo::Polyline base;
  for (int i = 0; i < 40; ++i) {
    base.push_back({55.0 + 0.004 * i, 11.0 + rng.Uniform(-0.001, 0.001)});
  }
  double prev = 0;
  for (double offset_m : {0.0, 200.0, 800.0, 3200.0}) {
    geo::Polyline shifted;
    for (const auto& p : base) {
      shifted.push_back(geo::Destination(p, 90.0, offset_m));
    }
    const double score = geo::DtwAverageMeters(base, shifted);
    EXPECT_GE(score, prev - 1.0) << "offset " << offset_m;
    prev = score;
  }
  EXPECT_NEAR(prev, 3200.0, 200.0);
}

TEST(CtePropertyTest, TransitionStatsMatchBruteForce) {
  // The Section 3.2 CTE must equal a direct computation over the trips.
  Rng rng(80);
  std::vector<ais::Trip> trips;
  for (int t = 0; t < 5; ++t) {
    ais::Trip trip;
    trip.trip_id = t + 1;
    trip.mmsi = t;
    double lat = 55.0, lng = 11.0 + 0.01 * t;
    for (int i = 0; i < 60; ++i) {
      ais::AisRecord r;
      r.mmsi = trip.mmsi;
      r.ts = i * 60;
      lat += rng.Uniform(0.0005, 0.003);
      lng += rng.Uniform(-0.001, 0.001);
      r.pos = {lat, lng};
      trip.points.push_back(r);
    }
    trips.push_back(trip);
  }
  core::HabitConfig config;
  config.resolution = 8;
  config.hll_precision = 14;  // low error for distinct counts
  const db::Table ais_table = core::TripsToTable(trips, config.resolution);
  auto stats = core::ComputeTransitionStats(ais_table, config);
  ASSERT_TRUE(stats.ok());

  // Brute force: for each directed (prev_cell, cell) pair with prev != cell
  // count the number of distinct trips making it.
  std::map<std::pair<int64_t, int64_t>, std::set<int64_t>> expected;
  for (const auto& trip : trips) {
    for (size_t i = 1; i < trip.points.size(); ++i) {
      const auto a = static_cast<int64_t>(
          hex::LatLngToCell(trip.points[i - 1].pos, config.resolution));
      const auto b = static_cast<int64_t>(
          hex::LatLngToCell(trip.points[i].pos, config.resolution));
      if (a != b) expected[{a, b}].insert(trip.trip_id);
    }
  }
  const db::Table& s = stats.value();
  ASSERT_EQ(s.num_rows(), expected.size());
  const db::Column& lag = *s.GetColumn("lag_cell").value();
  const db::Column& cell = *s.GetColumn("cell").value();
  const db::Column& trans = *s.GetColumn("transitions").value();
  for (size_t r = 0; r < s.num_rows(); ++r) {
    const auto key = std::make_pair(lag.GetInt(r), cell.GetInt(r));
    ASSERT_TRUE(expected.contains(key));
    // approx_count_distinct over <=5 trips is exact at this precision.
    EXPECT_EQ(trans.GetInt(r),
              static_cast<int64_t>(expected.at(key).size()));
  }
}

TEST(CellStatsPropertyTest, MediansMatchBruteForce) {
  Rng rng(81);
  std::vector<ais::Trip> trips;
  ais::Trip trip;
  trip.trip_id = 1;
  for (int i = 0; i < 200; ++i) {
    ais::AisRecord r;
    r.ts = i * 60;
    r.pos = {55.0 + 0.0015 * i, 11.0 + rng.Uniform(-0.002, 0.002)};
    r.sog = rng.Uniform(8, 16);
    trip.points.push_back(r);
  }
  trips.push_back(trip);
  core::HabitConfig config;
  config.resolution = 8;
  const db::Table ais_table = core::TripsToTable(trips, config.resolution);
  auto stats = core::ComputeCellStats(ais_table, config);
  ASSERT_TRUE(stats.ok());

  std::map<int64_t, std::vector<double>> lons;
  for (const auto& r : trip.points) {
    lons[static_cast<int64_t>(
            hex::LatLngToCell(r.pos, config.resolution))]
        .push_back(r.pos.lng);
  }
  const db::Table& s = stats.value();
  const db::Column& cell = *s.GetColumn("cell").value();
  const db::Column& med = *s.GetColumn("med_lon").value();
  for (size_t r = 0; r < s.num_rows(); ++r) {
    auto& v = lons.at(cell.GetInt(r));
    std::sort(v.begin(), v.end());
    const double exact = v.size() % 2 == 1
                             ? v[v.size() / 2]
                             : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
    EXPECT_NEAR(med.GetDouble(r), exact, 1e-12);
  }
}

TEST(ImputationInvariantTest, PathsAlwaysBracketGapEndpoints) {
  eval::ExperimentOptions options;
  options.scale = 0.25;
  options.seed = 4;
  auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
  core::HabitConfig config;
  auto fw = core::HabitFramework::Build(exp.train_trips, config).MoveValue();
  for (const auto& gc : exp.gaps) {
    auto imp = fw->Impute(gc.gap_start.pos, gc.gap_end.pos, gc.gap_start.ts,
                          gc.gap_end.ts);
    if (!imp.ok()) continue;
    const auto& result = imp.value();
    ASSERT_GE(result.path.size(), 2u);
    EXPECT_EQ(result.path.front(), gc.gap_start.pos);
    EXPECT_EQ(result.path.back(), gc.gap_end.pos);
    // Timestamps monotone and within the gap window.
    for (size_t i = 1; i < result.timestamps.size(); ++i) {
      EXPECT_GE(result.timestamps[i], result.timestamps[i - 1]);
    }
    EXPECT_EQ(result.timestamps.front(), gc.gap_start.ts);
    EXPECT_EQ(result.timestamps.back(), gc.gap_end.ts);
    // Cells traversed are all valid and at the configured resolution.
    for (const hex::CellId c : result.cells) {
      EXPECT_EQ(hex::Resolution(c), config.resolution);
    }
  }
}

TEST(ImputationInvariantTest, DeterministicAcrossRuns) {
  eval::ExperimentOptions options;
  options.scale = 0.25;
  options.seed = 4;
  auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
  core::HabitConfig config;
  auto fw1 = core::HabitFramework::Build(exp.train_trips, config).MoveValue();
  auto fw2 = core::HabitFramework::Build(exp.train_trips, config).MoveValue();
  ASSERT_FALSE(exp.gaps.empty());
  const auto& gc = exp.gaps.front();
  auto a = fw1->Impute(gc.gap_start.pos, gc.gap_end.pos);
  auto b = fw2->Impute(gc.gap_start.pos, gc.gap_end.pos);
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    ASSERT_EQ(a.value().path.size(), b.value().path.size());
    for (size_t i = 0; i < a.value().path.size(); ++i) {
      EXPECT_EQ(a.value().path[i], b.value().path[i]);
    }
  }
}

}  // namespace
}  // namespace habit
