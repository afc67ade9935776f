// Tests for the HABIT core: the Section 3.2 CTE (cell stats, transition
// stats), graph construction, the Section 3.3 imputer (snapping, A*,
// inverse projection), Section 3.4 simplification, and the framework facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "eval/harness.h"
#include "geo/similarity.h"
#include "graph/snapshot.h"
#include "habit/framework.h"
#include "habit/graph_builder.h"
#include "habit/serialize.h"
#include "hexgrid/hexgrid.h"
#include "sim/gaps.h"

namespace habit::core {
namespace {

// A fleet of parallel trips moving north along lng=11.0, one report per
// minute; lateral jitter keeps them within one lane.
std::vector<ais::Trip> MakeCorridorTrips(int n_trips = 6,
                                         int points_per_trip = 120,
                                         double lng = 11.0) {
  std::vector<ais::Trip> trips;
  for (int t = 0; t < n_trips; ++t) {
    ais::Trip trip;
    trip.trip_id = t + 1;
    trip.mmsi = 100 + t % 3;
    trip.type = ais::VesselType::kPassenger;
    for (int i = 0; i < points_per_trip; ++i) {
      ais::AisRecord r;
      r.mmsi = trip.mmsi;
      r.ts = 1000000 + i * 60;
      r.pos = {55.0 + i * 0.003, lng + 0.0004 * (t % 3)};
      r.sog = 12.0;
      r.cog = 0.0;
      trip.points.push_back(r);
    }
    trips.push_back(trip);
  }
  return trips;
}

TEST(ConfigTest, ToStringMentionsParameters) {
  HabitConfig config;
  config.resolution = 8;
  config.rdp_tolerance_m = 100;
  const std::string s = config.ToString();
  EXPECT_NE(s.find("r=8"), std::string::npos);
  EXPECT_NE(s.find("t=100"), std::string::npos);
}

TEST(GraphBuilderTest, TripsToTableSchemaAndContent) {
  const auto trips = MakeCorridorTrips(2, 10);
  const db::Table t = TripsToTable(trips, 9);
  EXPECT_EQ(t.num_rows(), 20u);
  EXPECT_EQ(t.schema().FieldIndex("cell"), 7);
  // The cell column round-trips to the hexgrid id.
  const auto cell = static_cast<hex::CellId>(
      t.GetColumn("cell").value()->GetInt(0));
  EXPECT_EQ(cell, hex::LatLngToCell(trips[0].points[0].pos, 9));
}

TEST(GraphBuilderTest, CellStatsAggregatesPerCell) {
  const auto trips = MakeCorridorTrips(4, 60);
  HabitConfig config;
  const db::Table ais_table = TripsToTable(trips, config.resolution);
  const auto stats = ComputeCellStats(ais_table, config);
  ASSERT_TRUE(stats.ok());
  const db::Table& s = stats.value();
  EXPECT_GT(s.num_rows(), 10u);
  // Total count across cells equals total reports.
  int64_t total = 0;
  const db::Column& cnt = *s.GetColumn("cnt").value();
  for (size_t r = 0; r < s.num_rows(); ++r) total += cnt.GetInt(r);
  EXPECT_EQ(total, static_cast<int64_t>(ais_table.num_rows()));
  // Median positions fall inside the corridor bounding box.
  const db::Column& lat = *s.GetColumn("med_lat").value();
  const db::Column& lng = *s.GetColumn("med_lon").value();
  for (size_t r = 0; r < s.num_rows(); ++r) {
    EXPECT_GE(lat.GetDouble(r), 54.9);
    EXPECT_LE(lat.GetDouble(r), 55.5);
    EXPECT_NEAR(lng.GetDouble(r), 11.0, 0.01);
  }
}

TEST(GraphBuilderTest, TransitionStatsExcludeSelfTransitions) {
  const auto trips = MakeCorridorTrips(3, 60);
  HabitConfig config;
  const db::Table ais_table = TripsToTable(trips, config.resolution);
  const auto stats = ComputeTransitionStats(ais_table, config);
  ASSERT_TRUE(stats.ok());
  const db::Table& s = stats.value();
  ASSERT_GT(s.num_rows(), 0u);
  const db::Column& lag = *s.GetColumn("lag_cell").value();
  const db::Column& cell = *s.GetColumn("cell").value();
  const db::Column& trans = *s.GetColumn("transitions").value();
  const db::Column& dist = *s.GetColumn("grid_distance").value();
  for (size_t r = 0; r < s.num_rows(); ++r) {
    EXPECT_NE(lag.GetInt(r), cell.GetInt(r));
    EXPECT_GE(trans.GetInt(r), 1);
    EXPECT_GE(dist.GetInt(r), 1);
  }
}

TEST(GraphBuilderTest, GraphHasLaneStructure) {
  const auto trips = MakeCorridorTrips(6, 120);
  HabitConfig config;
  const auto g = BuildGraphFromTrips(trips, config);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g.value().num_nodes(), 50u);
  EXPECT_GT(g.value().num_edges(), 50u);
  // Every node has valid attributes.
  g.value().ForEachNode([](graph::NodeId id, const graph::NodeAttrs& attrs) {
    EXPECT_TRUE(hex::IsValidCell(static_cast<hex::CellId>(id)));
    EXPECT_TRUE(attrs.center_pos.IsValid());
    EXPECT_TRUE(attrs.median_pos.IsValid());
  });
}

TEST(GraphBuilderTest, EdgeCostPolicies) {
  EXPECT_DOUBLE_EQ(EdgeCost(EdgeCostPolicy::kHops, 1), 1.0);
  EXPECT_DOUBLE_EQ(EdgeCost(EdgeCostPolicy::kHops, 1000), 1.0);
  // Inverse frequency: busier edges are cheaper.
  EXPECT_GT(EdgeCost(EdgeCostPolicy::kInverseFrequency, 1),
            EdgeCost(EdgeCostPolicy::kInverseFrequency, 100));
  // Hops-then-frequency: always > 1, decreasing in frequency.
  EXPECT_GT(EdgeCost(EdgeCostPolicy::kHopsThenFrequency, 1), 1.0);
  EXPECT_GT(EdgeCost(EdgeCostPolicy::kHopsThenFrequency, 1),
            EdgeCost(EdgeCostPolicy::kHopsThenFrequency, 50));
}

TEST(GraphBuilderTest, InvalidResolutionRejected) {
  const auto trips = MakeCorridorTrips(1, 10);
  HabitConfig config;
  config.resolution = 99;
  EXPECT_FALSE(BuildGraphFromTrips(trips, config).ok());
}

TEST(FrameworkTest, BuildRejectsEmptyInput) {
  HabitConfig config;
  EXPECT_FALSE(HabitFramework::Build({}, config).ok());
}

TEST(FrameworkTest, ImputeAlongCorridorFollowsLane) {
  const auto trips = MakeCorridorTrips(8, 150);
  HabitConfig config;
  config.rdp_tolerance_m = 0;  // keep the raw projected path
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  // Gap in the middle of the corridor.
  const geo::LatLng start{55.06, 11.0}, end{55.36, 11.0};
  auto imp = fw->Impute(start, end, 0, 3600);
  ASSERT_TRUE(imp.ok()) << imp.status().ToString();
  const Imputation& result = imp.value();
  ASSERT_GE(result.path.size(), 3u);
  // Path endpoints are the gap boundary points.
  EXPECT_EQ(result.path.front(), start);
  EXPECT_EQ(result.path.back(), end);
  // The imputed path stays near the lane (lng ~ 11.0).
  for (const geo::LatLng& p : result.path) {
    EXPECT_NEAR(p.lng, 11.0, 0.02);
  }
  // Timestamps monotone within the gap window.
  ASSERT_EQ(result.timestamps.size(), result.path.size());
  EXPECT_EQ(result.timestamps.front(), 0);
  EXPECT_EQ(result.timestamps.back(), 3600);
  for (size_t i = 1; i < result.timestamps.size(); ++i) {
    EXPECT_GE(result.timestamps[i], result.timestamps[i - 1]);
  }
}

TEST(FrameworkTest, ImputationAccuracyBeatsWorstCase) {
  const auto trips = MakeCorridorTrips(8, 150);
  HabitConfig config;
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  const geo::LatLng start{55.06, 11.0}, end{55.36, 11.0};
  auto imp = fw->Impute(start, end);
  ASSERT_TRUE(imp.ok());
  // Ground truth for this corridor is the straight lane segment. As in the
  // paper's protocol, both paths are resampled to <=250 m spacing before
  // DTW so sparse (RDP-simplified) paths are compared geometrically.
  geo::Polyline truth;
  for (int i = 0; i <= 100; ++i) {
    truth.push_back(geo::Intermediate(start, end, i / 100.0));
  }
  const geo::Polyline imputed_dense =
      geo::ResampleMaxSpacing(imp.value().path, 250.0);
  const geo::Polyline truth_dense = geo::ResampleMaxSpacing(truth, 250.0);
  EXPECT_LT(geo::DtwAverageMeters(imputed_dense, truth_dense), 300.0);
}

TEST(FrameworkTest, ProjectionOptionChangesInverseProjection) {
  // Build a lane whose reports are all displaced east inside each cell;
  // the data median should track that displacement, the center shouldn't.
  auto trips = MakeCorridorTrips(6, 150, 11.0);
  HabitConfig median_config;
  median_config.projection = Projection::kDataMedian;
  median_config.rdp_tolerance_m = 0;
  HabitConfig center_config = median_config;
  center_config.projection = Projection::kCellCenter;

  auto fw_median = HabitFramework::Build(trips, median_config).MoveValue();
  auto fw_center = HabitFramework::Build(trips, center_config).MoveValue();
  const geo::LatLng start{55.06, 11.0}, end{55.36, 11.0};
  auto im = fw_median->Impute(start, end).MoveValue();
  auto ic = fw_center->Impute(start, end).MoveValue();

  // Median-projected interior points sit exactly on historical positions
  // (lng in {11.0, 11.0004, 11.0008}); center-projected ones are cell
  // centers and generally differ.
  double median_lane_dev = 0, center_lane_dev = 0;
  for (size_t i = 1; i + 1 < im.path.size(); ++i) {
    median_lane_dev =
        std::max(median_lane_dev, std::fabs(im.path[i].lng - 11.0004));
  }
  for (size_t i = 1; i + 1 < ic.path.size(); ++i) {
    center_lane_dev =
        std::max(center_lane_dev, std::fabs(ic.path[i].lng - 11.0004));
  }
  EXPECT_LT(median_lane_dev, center_lane_dev + 1e-12);
}

TEST(FrameworkTest, RdpToleranceReducesPathPoints) {
  const auto trips = MakeCorridorTrips(8, 150);
  HabitConfig raw_config;
  raw_config.rdp_tolerance_m = 0;
  HabitConfig smooth_config;
  smooth_config.rdp_tolerance_m = 500;
  auto fw_raw = HabitFramework::Build(trips, raw_config).MoveValue();
  auto fw_smooth = HabitFramework::Build(trips, smooth_config).MoveValue();
  const geo::LatLng start{55.06, 11.0}, end{55.36, 11.0};
  const auto raw = fw_raw->Impute(start, end).MoveValue();
  const auto smooth = fw_smooth->Impute(start, end).MoveValue();
  EXPECT_LT(smooth.path.size(), raw.path.size());
  EXPECT_GE(smooth.path.size(), 2u);
}

TEST(FrameworkTest, UnreachableWhenFarFromData) {
  const auto trips = MakeCorridorTrips(4, 60);
  HabitConfig config;
  config.max_snap_ring = 4;  // keep the snap search tight
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  // A gap on the other side of the world.
  auto imp = fw->Impute({-33.0, 151.0}, {-33.5, 151.5});
  EXPECT_FALSE(imp.ok());
  EXPECT_EQ(imp.status().code(), StatusCode::kUnreachable);
}

TEST(FrameworkTest, InvalidEndpointsRejected) {
  const auto trips = MakeCorridorTrips(4, 60);
  HabitConfig config;
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  auto imp = fw->Impute({std::nan(""), 11.0}, {55.2, 11.0});
  EXPECT_FALSE(imp.ok());
}

TEST(FrameworkTest, SameCellGapShortCircuits) {
  const auto trips = MakeCorridorTrips(4, 120);
  HabitConfig config;
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  const geo::LatLng a{55.15, 11.0};
  const geo::LatLng b = geo::Destination(a, 45.0, 30.0);  // same cell
  auto imp = fw->Impute(a, b, 100, 200);
  ASSERT_TRUE(imp.ok());
  EXPECT_EQ(imp.value().cells.size(), 1u);
  EXPECT_EQ(imp.value().path.size(), 2u);
}

TEST(FrameworkTest, ImputeTripFillsInternalGaps) {
  const auto trips = MakeCorridorTrips(8, 150);
  HabitConfig config;
  config.rdp_tolerance_m = 0;  // keep all projected cells in the fill
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  // A degraded trip with a 40-minute hole in the middle.
  ais::Trip degraded;
  degraded.trip_id = 999;
  for (int i = 0; i < 150; ++i) {
    if (i > 40 && i <= 80) continue;  // remove 40 minutes
    ais::AisRecord r;
    r.ts = 1000000 + i * 60;
    r.pos = {55.0 + i * 0.003, 11.0};
    degraded.points.push_back(r);
  }
  auto filled = fw->ImputeTrip(degraded, 30 * 60);
  ASSERT_TRUE(filled.ok());
  // More points than the degraded trip: the hole was densified.
  EXPECT_GT(filled.value().size(), degraded.points.size());
}

TEST(FrameworkTest, StorageGrowsWithResolution) {
  const auto trips = MakeCorridorTrips(8, 150);
  size_t prev = 0;
  for (int r : {7, 8, 9}) {
    HabitConfig config;
    config.resolution = r;
    auto fw = HabitFramework::Build(trips, config).MoveValue();
    EXPECT_GT(fw->SizeBytes(), prev);
    prev = fw->SizeBytes();
  }
}

TEST(SerializeTest, GraphRoundTripsThroughCsv) {
  const auto trips = MakeCorridorTrips(5, 80);
  HabitConfig config;
  auto graph = BuildGraphFromTrips(trips, config).MoveValue();

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "habit_serialize_test")
          .string();
  const auto frozen = graph.Freeze();
  ASSERT_TRUE(SaveGraphCsv(frozen, prefix).ok());
  auto loaded = LoadGraphCsv(prefix, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().num_nodes(), graph.num_nodes());
  EXPECT_EQ(loaded.value().num_edges(), graph.num_edges());
  // Spot-check attributes survive the round trip.
  graph.ForEachNode([&](graph::NodeId id, const graph::NodeAttrs& attrs) {
    auto got = loaded.value().GetNode(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().message_count, attrs.message_count);
    EXPECT_NEAR(got.value().median_pos.lat, attrs.median_pos.lat, 1e-5);
    EXPECT_NEAR(got.value().median_pos.lng, attrs.median_pos.lng, 1e-5);
  });
  graph.ForEachEdge([&](graph::NodeId u, graph::NodeId v,
                        const graph::EdgeAttrs& attrs) {
    auto got = loaded.value().GetEdge(u, v);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().transitions, attrs.transitions);
    EXPECT_NEAR(got.value().weight, attrs.weight, 1e-9);
  });
  std::remove((prefix + "_nodes.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  HabitConfig config;
  EXPECT_FALSE(LoadGraphCsv("/nonexistent/habit_model", config).ok());
}

TEST(SerializeTest, LoadRejectsEdgesWithUnknownEndpoints) {
  // Regression: an edge row naming a cell that is not in the nodes table
  // used to load silently — Digraph::AddEdge auto-creates attr-less nodes,
  // leaving a phantom cell at lat/lng (0,0) that the snap-candidate search
  // could select. Corrupt files must fail the load instead.
  const auto trips = MakeCorridorTrips(3, 60);
  HabitConfig config;
  auto graph = BuildGraphFromTrips(trips, config).MoveValue();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "habit_corrupt_edges")
          .string();
  ASSERT_TRUE(SaveGraphCsv(graph.Freeze(), prefix).ok());

  // Append an edge whose destination is a valid-looking cell id that the
  // nodes table does not contain.
  const auto some_node = [&] {
    graph::NodeId id = 0;
    graph.ForEachNode(
        [&](graph::NodeId node, const graph::NodeAttrs&) { id = node; });
    return id;
  }();
  const hex::CellId phantom = hex::LatLngToCell({57.9, 13.9}, 9);
  ASSERT_FALSE(graph.HasNode(phantom));
  {
    // Cell ids are persisted as int64 (high-bit ids print negative), same
    // as GraphEdgesToTable writes them.
    std::FILE* f = std::fopen((prefix + "_edges.csv").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%lld,%lld,3,1\n", static_cast<long long>(some_node),
                 static_cast<long long>(phantom));
    std::fclose(f);
  }

  auto loaded = LoadGraphCsv(prefix, config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("not in the nodes"),
            std::string::npos)
      << loaded.status().ToString();

  // A row that breaks the src column's int64 type inference must also fail
  // the load (GetInt on a type-confused column used to be UB, not a
  // Status).
  {
    std::FILE* f = std::fopen((prefix + "_edges.csv").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "18446744073709551615,%lld,3,1\n",
                 static_cast<long long>(some_node));
    std::fclose(f);
  }
  auto type_confused = LoadGraphCsv(prefix, config);
  ASSERT_FALSE(type_confused.ok());
  EXPECT_EQ(type_confused.status().code(), StatusCode::kInvalidArgument);
  std::remove((prefix + "_nodes.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(FrameworkTest, SnapshotColdStartMatchesTrainedFramework) {
  // The O(read) cold-start path: dump the frozen CSR arrays, reload them
  // with no Digraph rebuild or re-freeze, and serve identical queries.
  const auto trips = MakeCorridorTrips(6, 120);
  HabitConfig config;
  auto trained = HabitFramework::Build(trips, config).MoveValue();

  const std::string path =
      (std::filesystem::temp_directory_path() / "habit_framework.snap")
          .string();
  ASSERT_TRUE(graph::SaveGraphSnapshot(trained->graph(), path).ok());
  auto frozen = graph::LoadGraphSnapshot(path);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  auto cold = HabitFramework::FromFrozen(frozen.MoveValue(), config)
                  .MoveValue();

  EXPECT_EQ(cold->SizeBytes(), trained->SizeBytes());
  EXPECT_EQ(cold->SerializedSizeBytes(), trained->SerializedSizeBytes());
  for (double start_lat : {55.05, 55.10, 55.18}) {
    auto want = trained->Impute({start_lat, 11.0}, {55.30, 11.0}, 0, 3600);
    auto got = cold->Impute({start_lat, 11.0}, {55.30, 11.0}, 0, 3600);
    ASSERT_EQ(want.ok(), got.ok());
    if (!want.ok()) continue;
    EXPECT_EQ(want.value().path, got.value().path);
    EXPECT_EQ(want.value().cells, got.value().cells);
    EXPECT_EQ(want.value().timestamps, got.value().timestamps);
  }

  // A topology-only snapshot cannot serve HABIT (no medians to project).
  graph::Digraph topo;
  topo.AddEdge(1, 2, {.weight = 1.0});
  EXPECT_FALSE(
      HabitFramework::FromFrozen(topo.Freeze(/*keep_attrs=*/false), config)
          .ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, ModelSnapshotEmbedsTheBuildConfiguration) {
  // The self-describing artifact: loading needs no spec parameters, and a
  // non-default configuration survives the round trip — the graph can
  // never be served under a mismatched resolution or cost policy.
  const auto trips = MakeCorridorTrips(5, 100);
  HabitConfig config;
  config.resolution = 8;
  config.projection = Projection::kCellCenter;
  config.rdp_tolerance_m = 100.0;
  config.edge_cost = EdgeCostPolicy::kInverseFrequency;
  config.expand_transitions = false;
  auto trained = HabitFramework::Build(trips, config).MoveValue();

  const std::string path =
      (std::filesystem::temp_directory_path() / "habit_model.snap").string();
  ASSERT_TRUE(SaveModelSnapshot(*trained, path).ok());
  auto loaded_result = LoadModelSnapshot(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  const auto loaded = std::move(loaded_result.value());

  EXPECT_EQ(loaded->config().resolution, config.resolution);
  EXPECT_EQ(loaded->config().projection, config.projection);
  EXPECT_EQ(loaded->config().rdp_tolerance_m, config.rdp_tolerance_m);
  EXPECT_EQ(loaded->config().edge_cost, config.edge_cost);
  EXPECT_EQ(loaded->config().expand_transitions, config.expand_transitions);
  EXPECT_EQ(loaded->SizeBytes(), trained->SizeBytes());

  auto want = trained->Impute({55.05, 11.0}, {55.25, 11.0}, 0, 3600);
  auto got = loaded->Impute({55.05, 11.0}, {55.25, 11.0}, 0, 3600);
  ASSERT_EQ(want.ok(), got.ok());
  if (want.ok()) EXPECT_EQ(want.value().path, got.value().path);

  // A bare graph snapshot (kCompactGraph) is not a model snapshot.
  ASSERT_TRUE(graph::SaveGraphSnapshot(trained->graph(), path).ok());
  auto wrong_kind = LoadModelSnapshot(path);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kInvalidArgument);

  // A stored snap ring radius past kMaxSnapRing is refused by both loaders:
  // serving it would let one off-graph endpoint walk a million rings.
  HabitConfig wide = config;
  wide.max_snap_ring = 1000000;
  auto unbounded =
      HabitFramework::FromFrozen(trained->graph(), wide).MoveValue();
  ASSERT_TRUE(SaveModelSnapshot(*unbounded, path).ok());
  for (const bool mapped : {false, true}) {
    auto refused = LoadModelSnapshot(path, mapped);
    ASSERT_FALSE(refused.ok()) << "mapped=" << mapped;
    EXPECT_NE(refused.status().message().find("snap ring radius 1000000"),
              std::string::npos)
        << refused.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, NodeAndEdgeTablesHaveExpectedShape) {
  const auto trips = MakeCorridorTrips(3, 50);
  HabitConfig config;
  auto graph = BuildGraphFromTrips(trips, config).MoveValue();
  const auto frozen = graph.Freeze();
  const db::Table nodes = GraphNodesToTable(frozen);
  const db::Table edges = GraphEdgesToTable(frozen);
  EXPECT_EQ(nodes.num_rows(), graph.num_nodes());
  EXPECT_EQ(edges.num_rows(), graph.num_edges());
  EXPECT_EQ(nodes.schema().FieldIndex("med_lon"), 1);
  EXPECT_EQ(edges.schema().FieldIndex("transitions"), 2);
}

TEST(ImputerTest, SnapPrefersOwnCell) {
  const auto trips = MakeCorridorTrips(4, 120);
  HabitConfig config;
  auto fw = HabitFramework::Build(trips, config).MoveValue();
  const Imputer imputer(&fw->graph(), config);
  const geo::LatLng on_lane{55.15, 11.0};
  auto snapped = imputer.SnapToNode(on_lane);
  ASSERT_TRUE(snapped.ok());
  EXPECT_EQ(snapped.value(), hex::LatLngToCell(on_lane, config.resolution));
  // A point a few cells off-lane snaps to some nearby node.
  const geo::LatLng off_lane = geo::Destination(on_lane, 90.0, 800.0);
  auto snapped_off = imputer.SnapToNode(off_lane);
  ASSERT_TRUE(snapped_off.ok());
  EXPECT_TRUE(fw->graph().HasNode(snapped_off.value()));
}

// ---------------------------------------------------------------------------
// The query written the plain way, as an oracle: a ring walk of its own,
// IndexOf by std::lower_bound over the id column, one textbook haversine
// per candidate, std::sort then truncate, seeds from a second haversine, a
// binary-search target test, and projection by cell id. Imputer shares
// none of that code (it snaps in one pass over a hashed lookup and stamps
// its targets), yet must answer bit for bit alike.
class OracleImputer {
 public:
  OracleImputer(const graph::CompactGraph& g, const HabitConfig& config)
      : g_(g), config_(config) {
    ids_.reserve(g.num_nodes());
    for (graph::NodeIndex i = 0; i < g.num_nodes(); ++i) {
      ids_.push_back(g.IdOf(i));
    }
  }

  std::vector<hex::CellId> SnapCandidates(const geo::LatLng& p,
                                          Imputer::SnapRole role,
                                          size_t max_candidates) const {
    std::vector<hex::CellId> found;
    if (!p.IsValid()) return found;
    const hex::CellId own = hex::LatLngToCell(p, config_.resolution);
    if (own == hex::kInvalidCell) return found;
    auto usable = [&](hex::CellId c) {
      const graph::NodeIndex idx = IndexOf(c);
      if (idx == graph::kInvalidNodeIndex) return false;
      if (role == Imputer::SnapRole::kSource) return g_.OutDegree(idx) > 0;
      if (role == Imputer::SnapRole::kTarget) return g_.InDegree(idx) > 0;
      return true;
    };
    if (usable(own)) found.push_back(own);
    int rings_after_hit = 0;
    for (int k = 1; k <= config_.max_snap_ring; ++k) {
      if (!found.empty() && ++rings_after_hit > 12) break;
      if (found.size() >= max_candidates) break;
      for (const hex::CellId c : Ring(own, k)) {
        if (usable(c)) found.push_back(c);
      }
    }
    std::vector<std::pair<double, hex::CellId>> by_distance;
    for (const hex::CellId c : found) {
      by_distance.emplace_back(Haversine(p, hex::CellToLatLng(c)), c);
    }
    std::sort(by_distance.begin(), by_distance.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    found.clear();
    for (const auto& [dist, c] : by_distance) found.push_back(c);
    if (found.size() > max_candidates) found.resize(max_candidates);
    return found;
  }

  geo::LatLng ProjectCell(hex::CellId cell) const {
    if (config_.projection == Projection::kDataMedian) {
      const graph::NodeIndex idx = IndexOf(cell);
      if (idx != graph::kInvalidNodeIndex && g_.MessageCount(idx) > 0) {
        return g_.MedianPos(idx);
      }
    }
    return hex::CellToLatLng(cell);
  }

  Result<Imputation> Impute(const geo::LatLng& a, const geo::LatLng& b,
                            int64_t t_start, int64_t t_end) const {
    if (!a.IsValid() || !b.IsValid()) {
      return Status::InvalidArgument("invalid gap endpoint " + a.ToString() +
                                     " -> " + b.ToString());
    }
    const auto src = SnapCandidates(a, Imputer::SnapRole::kSource, 48);
    const auto dst = SnapCandidates(b, Imputer::SnapRole::kTarget, 48);
    if (src.empty() || dst.empty()) {
      return Status::Unreachable(
          "gap endpoint could not be snapped to the transition graph");
    }
    for (const hex::CellId s : src) {
      if (s == dst.front() && s == hex::LatLngToCell(b, config_.resolution)) {
        Imputation result;
        result.cells = {s};
        result.path = {a, b};
        result.timestamps = {t_start, t_end};
        return result;
      }
    }
    const double pitch =
        hex::EdgeLengthMeters(config_.resolution) * 1.7320508;
    std::vector<graph::SearchSeed> seeds;
    for (const hex::CellId s : src) {
      seeds.push_back({IndexOf(s), Haversine(a, hex::CellToLatLng(s)) / pitch});
    }
    std::vector<graph::NodeIndex> targets;
    for (const hex::CellId d : dst) targets.push_back(IndexOf(d));
    std::sort(targets.begin(), targets.end());
    graph::SearchScratch scratch;
    const graph::CsrSearch run = graph::RunSearch(
        g_, seeds,
        [&](graph::NodeIndex u) {
          return std::binary_search(targets.begin(), targets.end(), u);
        },
        [](graph::NodeIndex) { return 0.0; }, scratch);
    if (!run.found) {
      return Status::Unreachable(
          "no snap candidate pair is connected in the transition graph");
    }
    Imputation result;
    result.expanded = run.expanded;
    for (const graph::NodeIndex i :
         graph::ReconstructPath(scratch, run.reached)) {
      result.cells.push_back(g_.IdOf(i));
    }
    geo::Polyline line = {a};
    for (const hex::CellId c : result.cells) {
      const geo::LatLng p = ProjectCell(c);
      if (Haversine(line.back(), p) > 1.0) line.push_back(p);
    }
    if (Haversine(line.back(), b) > 1.0 || line.size() == 1) {
      line.push_back(b);
    } else {
      line.back() = b;
    }
    result.path = geo::RdpSimplify(line, config_.rdp_tolerance_m);
    result.timestamps.assign(result.path.size(), t_start);
    double total = 0;
    for (size_t i = 1; i < result.path.size(); ++i) {
      total += Haversine(result.path[i - 1], result.path[i]);
    }
    if (total > 0 && t_end > t_start) {
      double acc = 0;
      for (size_t i = 1; i < result.path.size(); ++i) {
        acc += Haversine(result.path[i - 1], result.path[i]);
        result.timestamps[i] =
            t_start + static_cast<int64_t>(
                          std::llround((t_end - t_start) * (acc / total)));
      }
    } else {
      result.timestamps.back() = t_end;
    }
    return result;
  }

 private:
  graph::NodeIndex IndexOf(hex::CellId c) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), c);
    if (it == ids_.end() || *it != c) return graph::kInvalidNodeIndex;
    return static_cast<graph::NodeIndex>(it - ids_.begin());
  }

  // The cells at grid distance k >= 1: k steps in direction 4 to the
  // starting corner, then the six sides in direction order.
  static std::vector<hex::CellId> Ring(hex::CellId origin, int k) {
    static constexpr int64_t kDirs[6][2] = {{1, 0},  {1, -1}, {0, -1},
                                            {-1, 0}, {-1, 1}, {0, 1}};
    const int res = hex::Resolution(origin);
    hex::Axial cur = hex::CellToAxial(origin);
    cur.i += kDirs[4][0] * k;
    cur.j += kDirs[4][1] * k;
    std::vector<hex::CellId> out;
    for (const auto& dir : kDirs) {
      for (int step = 0; step < k; ++step) {
        const hex::CellId c = hex::AxialToCell(res, cur);
        if (c != hex::kInvalidCell) out.push_back(c);
        cur.i += dir[0];
        cur.j += dir[1];
      }
    }
    return out;
  }

  static double Haversine(const geo::LatLng& a, const geo::LatLng& b) {
    const double lat1 = geo::DegToRad(a.lat);
    const double lat2 = geo::DegToRad(b.lat);
    const double dlat = lat2 - lat1;
    const double dlng = geo::DegToRad(b.lng - a.lng);
    const double s1 = std::sin(dlat / 2.0);
    const double s2 = std::sin(dlng / 2.0);
    const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
    return 2.0 * geo::kEarthRadiusMeters *
           std::asin(std::min(1.0, std::sqrt(h)));
  }

  const graph::CompactGraph& g_;
  HabitConfig config_;
  std::vector<graph::NodeId> ids_;
};

void ExpectSameImputation(const Result<Imputation>& want,
                          const Result<Imputation>& got,
                          const std::string& where) {
  ASSERT_EQ(want.ok(), got.ok()) << where;
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << where;
    EXPECT_EQ(want.status().message(), got.status().message()) << where;
    return;
  }
  const Imputation& w = want.value();
  const Imputation& g = got.value();
  ASSERT_EQ(w.path.size(), g.path.size()) << where;
  for (size_t i = 0; i < w.path.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(w.path[i].lat),
              std::bit_cast<uint64_t>(g.path[i].lat)) << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(w.path[i].lng),
              std::bit_cast<uint64_t>(g.path[i].lng)) << where;
  }
  EXPECT_EQ(w.cells, g.cells) << where;
  EXPECT_EQ(w.timestamps, g.timestamps) << where;
  EXPECT_EQ(w.expanded, g.expanded) << where;
}

// Imputer::SnapCandidates and Imputer::Impute against the oracle on a
// KIEL r=10 and a SAR r=9 model: ~1,000 gap endpoints, random points in
// the data's bounding box, points beyond the snap rings (empty answers)
// and exact cell centers (where candidate distances tie), for all three
// snap roles and both projections.
TEST(ImputerTest, MatchesThePlainQueryBitForBit) {
  for (const auto& [dataset, resolution] :
       {std::pair<const char*, int>{"KIEL", 10}, {"SAR", 9}}) {
    SCOPED_TRACE(std::string(dataset) + " r=" + std::to_string(resolution));
    eval::ExperimentOptions options;
    options.scale = 0.4;
    auto exp = eval::PrepareExperiment(dataset, options).MoveValue();
    HabitConfig config;
    config.resolution = resolution;
    auto fw = HabitFramework::Build(exp.train_trips, config).MoveValue();
    const graph::CompactGraph& g = fw->graph();

    // Gap endpoints: several seeded gaps per test trip.
    Rng rng(2026);
    std::vector<std::pair<sim::GapCase, int>> gaps;
    for (int pass = 0; pass < 100 && gaps.size() < 500; ++pass) {
      for (const ais::Trip& trip : exp.test_trips) {
        sim::GapOptions gap_options;
        gap_options.gap_seconds = 600 * (1 + pass % 6);
        if (auto gap = sim::InjectGap(trip, gap_options, &rng)) {
          gaps.emplace_back(std::move(*gap), pass);
        }
        if (gaps.size() >= 500) break;
      }
    }
    ASSERT_GE(gaps.size(), 400u) << exp.test_trips.size() << " test trips";

    // Snap probes: every endpoint, random points in the bounding box, far
    // points, and the centers of node cells and of their neighbours.
    double lat_lo = 90, lat_hi = -90, lng_lo = 180, lng_hi = -180;
    std::vector<geo::LatLng> probes;
    for (const auto& [gap, pass] : gaps) {
      for (const geo::LatLng& p : {gap.gap_start.pos, gap.gap_end.pos}) {
        probes.push_back(p);
        lat_lo = std::min(lat_lo, p.lat);
        lat_hi = std::max(lat_hi, p.lat);
        lng_lo = std::min(lng_lo, p.lng);
        lng_hi = std::max(lng_hi, p.lng);
      }
    }
    for (int i = 0; i < 300; ++i) {
      probes.push_back({rng.Uniform(lat_lo, lat_hi),
                        rng.Uniform(lng_lo, lng_hi)});
    }
    std::vector<geo::LatLng> far;
    for (int i = 0; i < 10; ++i) {
      far.push_back({lat_hi + 0.5 + 0.05 * i, lng_hi + 0.5});
    }
    probes.insert(probes.end(), far.begin(), far.end());
    for (graph::NodeIndex i = 0; i < g.num_nodes(); i += 193) {
      probes.push_back(hex::CellToLatLng(g.IdOf(i)));
      probes.push_back(hex::CellToLatLng(hex::Neighbors(g.IdOf(i))[i % 6]));
    }

    for (const Projection projection :
         {Projection::kDataMedian, Projection::kCellCenter}) {
      HabitConfig variant = config;
      variant.projection = projection;
      const Imputer imputer(&g, variant);
      const OracleImputer oracle(g, variant);

      if (projection == Projection::kDataMedian) {
        size_t empty = 0;
        for (const geo::LatLng& p : probes) {
          for (const auto role :
               {Imputer::SnapRole::kAny, Imputer::SnapRole::kSource,
                Imputer::SnapRole::kTarget}) {
            for (const size_t max : {size_t{48}, size_t{1}}) {
              const auto want = oracle.SnapCandidates(p, role, max);
              ASSERT_EQ(imputer.SnapCandidates(p, role, max), want)
                  << p.ToString() << " role " << static_cast<int>(role)
                  << " max " << max;
              empty += want.empty() ? 1 : 0;
            }
          }
        }
        EXPECT_GE(empty, far.size() * 6);  // the far points snap to nothing
        for (const geo::LatLng& p : probes) {
          ASSERT_EQ(imputer.SnapToNode(p).ok(),
                    !oracle.SnapCandidates(p, Imputer::SnapRole::kAny, 1)
                         .empty());
        }
      }

      graph::SearchScratch scratch;  // reused, as ImputeBatch does
      size_t ok = 0;
      for (size_t i = 0; i < gaps.size(); ++i) {
        const sim::GapCase& gap = gaps[i].first;
        const auto want = oracle.Impute(gap.gap_start.pos, gap.gap_end.pos,
                                        gap.gap_start.ts, gap.gap_end.ts);
        ExpectSameImputation(
            want,
            imputer.Impute(gap.gap_start.pos, gap.gap_end.pos,
                           gap.gap_start.ts, gap.gap_end.ts, &scratch),
            "gap " + std::to_string(i));
        ok += want.ok() ? 1 : 0;
      }
      EXPECT_GE(ok, gaps.size() / 2);
      if (projection != Projection::kDataMedian) continue;
      // Centers, random and far points as endpoints, paired off.
      for (size_t i = 2 * gaps.size(); i + 1 < probes.size(); i += 2) {
        ExpectSameImputation(
            oracle.Impute(probes[i], probes[i + 1], 0, 600),
            imputer.Impute(probes[i], probes[i + 1], 0, 600, &scratch),
            "probe pair " + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace habit::core
