// Equivalence of the sort-and-scan HABIT builder with a brute-force
// reference of the Section 3.2 CTE: std::map group-bys, one dense
// HyperLogLog per group, ExactMedian fed in input order, and std::map
// accumulation into a Digraph. Every frozen array must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "graph/digraph.h"
#include "habit/graph_builder.h"
#include "hexgrid/hexgrid.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::core {
namespace {

// approx_count_distinct through a dense sketch (one at a time: a p=16
// sketch per group would hold 64 KiB each).
int64_t DenseCount(const std::vector<uint64_t>& keys, int precision) {
  sketch::HyperLogLog hll(precision);
  for (const uint64_t key : keys) hll.AddInt(key);
  return std::llround(hll.Estimate());
}

graph::Digraph ReferenceBuild(const std::vector<ais::Trip>& trips,
                              const HabitConfig& config) {
  struct Row {
    int64_t trip_id;
    int64_t ts;
    hex::CellId cell;
  };
  struct CellGroup {
    std::vector<uint64_t> vessels;
    sketch::ExactMedian lon, lat, sog, cog;
  };
  std::vector<Row> rows;
  std::map<hex::CellId, CellGroup> cells;
  for (const ais::Trip& trip : trips) {
    for (const ais::AisRecord& r : trip.points) {
      const hex::CellId cell = hex::LatLngToCell(r.pos, config.resolution);
      rows.push_back({trip.trip_id, r.ts, cell});
      CellGroup& group = cells[cell];
      group.vessels.push_back(static_cast<uint64_t>(r.mmsi));
      group.lon.Add(r.pos.lng);
      group.lat.Add(r.pos.lat);
      group.sog.Add(r.sog);
      group.cog.Add(r.cog);
    }
  }

  // LAG(cell) OVER (PARTITION BY trip_id ORDER BY ts): partitions by value,
  // ties keep input order.
  std::map<int64_t, std::vector<Row>> partitions;
  for (const Row& row : rows) partitions[row.trip_id].push_back(row);
  std::map<std::pair<hex::CellId, hex::CellId>, std::vector<uint64_t>> pairs;
  for (auto& [trip_id, points] : partitions) {
    std::stable_sort(points.begin(), points.end(),
                     [](const Row& a, const Row& b) { return a.ts < b.ts; });
    for (size_t i = 1; i < points.size(); ++i) {
      if (points[i - 1].cell == points[i].cell) continue;
      pairs[{points[i - 1].cell, points[i].cell}].push_back(
          static_cast<uint64_t>(trip_id));
    }
  }

  std::map<std::pair<hex::CellId, hex::CellId>, int64_t> accum;
  for (const auto& [pair, trip_ids] : pairs) {
    const auto [u, v] = pair;
    const int64_t transitions = DenseCount(trip_ids, config.hll_precision);
    const auto dist = hex::GridDistance(u, v);
    if (config.expand_transitions && dist.ok() && dist.value() > 1) {
      auto path = hex::GridPathCells(u, v);
      if (path.ok() && path.value().size() >= 2) {
        for (size_t i = 1; i < path.value().size(); ++i) {
          accum[{path.value()[i - 1], path.value()[i]}] += transitions;
        }
        continue;
      }
    }
    accum[pair] += transitions;
  }

  graph::Digraph g;
  for (const auto& [cell, group] : cells) {
    graph::NodeAttrs attrs;
    attrs.median_pos = {group.lat.Median(), group.lon.Median()};
    attrs.center_pos = hex::CellToLatLng(cell);
    attrs.message_count = static_cast<int64_t>(group.vessels.size());
    attrs.distinct_vessels = DenseCount(group.vessels, config.hll_precision);
    attrs.median_sog = group.sog.Median();
    attrs.median_cog = group.cog.Median();
    g.AddNode(cell, attrs);
  }
  for (const auto& [pair, transitions] : accum) {
    const auto [u, v] = pair;
    for (const hex::CellId cell : {u, v}) {
      graph::NodeAttrs attrs;
      attrs.center_pos = hex::CellToLatLng(cell);
      attrs.median_pos = attrs.center_pos;
      g.AddNode(cell, attrs);  // no-op for cells with statistics
    }
    const auto dist = hex::GridDistance(u, v);
    graph::EdgeAttrs attrs;
    attrs.transitions = transitions;
    attrs.grid_distance = dist.ok() ? dist.value() : 1;
    attrs.weight =
        EdgeCost(config.edge_cost, transitions) *
        static_cast<double>(std::max<int64_t>(1, attrs.grid_distance));
    g.AddEdge(u, v, attrs);
  }
  return g;
}

// Every frozen array, doubles as their bit patterns.
std::map<std::string, std::vector<uint64_t>> FrozenArrays(
    const graph::CompactGraph& g) {
  std::map<std::string, std::vector<uint64_t>> a;
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  a["row_offsets"].push_back(0);
  for (graph::NodeIndex u = 0; u < g.num_nodes(); ++u) {
    a["node_ids"].push_back(g.IdOf(u));
    a["row_offsets"].push_back(a["row_offsets"].back() + g.OutDegree(u));
    a["in_degree"].push_back(g.InDegree(u));
    for (const graph::NodeIndex v : g.OutNeighbors(u)) {
      a["edge_dst"].push_back(v);
    }
    for (const double w : g.OutWeights(u)) a["edge_weight"].push_back(bits(w));
    const graph::NodeAttrs n = g.NodeAttrsAt(u);
    a["median_lat"].push_back(bits(n.median_pos.lat));
    a["median_lng"].push_back(bits(n.median_pos.lng));
    a["center_lat"].push_back(bits(n.center_pos.lat));
    a["center_lng"].push_back(bits(n.center_pos.lng));
    a["message_count"].push_back(static_cast<uint64_t>(n.message_count));
    a["distinct_vessels"].push_back(static_cast<uint64_t>(n.distinct_vessels));
    a["median_sog"].push_back(bits(n.median_sog));
    a["median_cog"].push_back(bits(n.median_cog));
  }
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const graph::EdgeAttrs attrs = g.EdgeAttrsAt(e);
    a["edge_transitions"].push_back(static_cast<uint64_t>(attrs.transitions));
    a["edge_grid_distance"].push_back(
        static_cast<uint64_t>(attrs.grid_distance));
  }
  return a;
}

void ExpectBitIdentical(const graph::Digraph& got,
                        const graph::Digraph& want) {
  const auto actual = FrozenArrays(got.Freeze());
  const auto expected = FrozenArrays(want.Freeze());
  for (const auto& [name, values] : expected) {
    const std::vector<uint64_t>& mine = actual.at(name);
    ASSERT_EQ(mine.size(), values.size()) << name;
    const auto diff = std::mismatch(mine.begin(), mine.end(), values.begin());
    EXPECT_TRUE(diff.first == mine.end())
        << name << " differs at index " << (diff.first - mine.begin());
  }
}

// Random walks around Kiel at r=9. They cover the cases the sort-and-scan
// builder must reproduce:
//  - pairs of Trips sharing a trip_id (LAG partitions by value, so their
//    interleaved points merge into one partition);
//  - repeated timestamps inside a trip (input order breaks the tie);
//  - jumps of several cells (grid distance > 1);
//  - few vessels, repeated sog values and both signed zeros in cog, so
//    medians see ties;
//  - a crowd of 2·2^p two-point trips, distinct in vessel and trip, that
//    all step from one cell to its neighbour: the cell and the transition
//    pass the 70% register threshold and take the dense fallback.
std::vector<ais::Trip> MakeTrips(uint64_t seed, int precision) {
  Rng rng(seed);
  std::vector<ais::Trip> trips;
  for (int t = 0; t < 30; ++t) {
    ais::Trip trip;
    trip.trip_id = t / 2;
    trip.mmsi = rng.UniformInt(0, 7);
    double lat = 54.40 + rng.Uniform(0.0, 0.05);
    double lng = 10.20 + rng.Uniform(0.0, 0.05);
    int64_t ts = rng.UniformInt(0, 600);
    for (int i = 0; i < 50; ++i) {
      const bool jump = rng.Uniform(0.0, 1.0) < 0.1;
      const double step = jump ? 0.02 : 0.002;
      lat += rng.Uniform(-step, step);
      lng += rng.Uniform(-step, step);
      ts += 30 * rng.UniformInt(0, 2);
      ais::AisRecord r;
      r.mmsi = trip.mmsi;
      r.ts = ts;
      r.pos = {lat, lng};
      r.sog = static_cast<double>(rng.UniformInt(0, 4));
      const int64_t heading = rng.UniformInt(0, 2);
      r.cog = heading == 0 ? 0.0 : heading == 1 ? -0.0 : rng.Uniform(0, 360);
      trip.points.push_back(r);
    }
    trips.push_back(std::move(trip));
  }
  const hex::CellId from = hex::LatLngToCell({54.50, 10.30}, 9);
  const geo::LatLng stops[] = {hex::CellToLatLng(from),
                               hex::CellToLatLng(hex::Neighbors(from)[0])};
  const int64_t crowd = int64_t{2} << precision;
  for (int64_t k = 0; k < crowd; ++k) {
    ais::Trip trip;
    trip.trip_id = 1000 + k;
    trip.mmsi = 1000 + k;
    for (int i = 0; i < 2; ++i) {
      ais::AisRecord r;
      r.mmsi = trip.mmsi;
      r.ts = i * 60;
      r.pos = stops[i];
      r.sog = 10.0;
      trip.points.push_back(r);
    }
    trips.push_back(std::move(trip));
  }
  return trips;
}

class GraphBuilderEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GraphBuilderEquivalenceTest, MatchesBruteForceReferenceBitForBit) {
  const auto [precision, expand] = GetParam();
  HabitConfig config;
  config.resolution = 9;
  config.hll_precision = precision;
  config.expand_transitions = expand;
  for (const uint64_t seed : {1u, 2u}) {
    const std::vector<ais::Trip> trips = MakeTrips(seed, precision);
    auto built = BuildGraphFromTrips(trips, config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const graph::Digraph reference = ReferenceBuild(trips, config);
    ExpectBitIdentical(built.value(), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(PrecisionsAndExpansion, GraphBuilderEquivalenceTest,
                         ::testing::Combine(::testing::Values(4, 12, 16),
                                            ::testing::Bool()));

TEST(GraphBuilderGeneratorTest, CoversTheEdgeCases) {
  // Guards the generator: each case above must actually occur.
  const int precision = 12;
  const std::vector<ais::Trip> trips = MakeTrips(1, precision);
  bool equal_ts = false;
  for (const ais::Trip& trip : trips) {
    for (size_t i = 1; i < trip.points.size(); ++i) {
      equal_ts = equal_ts || trip.points[i].ts == trip.points[i - 1].ts;
    }
  }
  EXPECT_TRUE(equal_ts);
  EXPECT_EQ(trips[0].trip_id, trips[1].trip_id);

  bool long_jump = false;
  for (const ais::Trip& trip : trips) {
    for (size_t i = 1; i < trip.points.size(); ++i) {
      const auto dist = hex::GridDistance(
          hex::LatLngToCell(trip.points[i - 1].pos, 9),
          hex::LatLngToCell(trip.points[i].pos, 9));
      long_jump = long_jump || (dist.ok() && dist.value() > 1);
    }
  }
  EXPECT_TRUE(long_jump);

  const ais::Trip& crowd = trips.back();
  EXPECT_EQ(hex::GridDistance(hex::LatLngToCell(crowd.points[0].pos, 9),
                              hex::LatLngToCell(crowd.points[1].pos, 9))
                .value(),
            1);
  // The crowd's distinct keys hit more than 70% of the registers.
  std::vector<bool> hit(size_t{1} << precision, false);
  size_t hits = 0;
  for (const ais::Trip& trip : trips) {
    if (trip.trip_id < 1000) continue;
    const uint64_t index =
        sketch::HyperLogLog::Hash64(static_cast<uint64_t>(trip.trip_id)) >>
        (64 - precision);
    hits += hit[index] ? 0 : 1;
    hit[index] = true;
  }
  EXPECT_GT(10 * hits, 7 * hit.size());
}

}  // namespace
}  // namespace habit::core
