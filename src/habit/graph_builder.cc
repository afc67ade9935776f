#include "habit/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "hexgrid/hexgrid.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::core {

const char* ProjectionToString(Projection p) {
  switch (p) {
    case Projection::kCellCenter: return "center";
    case Projection::kDataMedian: return "median";
  }
  return "?";
}

const char* EdgeCostPolicyToString(EdgeCostPolicy p) {
  switch (p) {
    case EdgeCostPolicy::kHops: return "hops";
    case EdgeCostPolicy::kInverseFrequency: return "inverse_frequency";
    case EdgeCostPolicy::kHopsThenFrequency: return "hops_then_frequency";
  }
  return "?";
}

Status CheckSnapRing(int64_t ring) {
  if (ring >= 0 && ring <= kMaxSnapRing) return Status::OK();
  return Status::InvalidArgument("snap ring radius " + std::to_string(ring) +
                                 " is outside [0, " +
                                 std::to_string(kMaxSnapRing) + "]");
}

std::string HabitConfig::ToString() const {
  return "HabitConfig{r=" + std::to_string(resolution) +
         ", p=" + ProjectionToString(projection) +
         ", t=" + std::to_string(static_cast<int>(rdp_tolerance_m)) +
         ", cost=" + EdgeCostPolicyToString(edge_cost) + "}";
}

double EdgeCost(EdgeCostPolicy policy, int64_t transitions) {
  const double n = static_cast<double>(std::max<int64_t>(1, transitions));
  switch (policy) {
    case EdgeCostPolicy::kHops:
      return 1.0;
    case EdgeCostPolicy::kInverseFrequency:
      return 1.0 / std::log(std::exp(1.0) + n);
    case EdgeCostPolicy::kHopsThenFrequency:
      return 1.0 + 1.0 / (1.0 + n);
  }
  return 1.0;
}

db::Table TripsToTable(const std::vector<ais::Trip>& trips, int resolution) {
  db::Schema schema{{"trip_id", db::DataType::kInt64},
                    {"mmsi", db::DataType::kInt64},
                    {"ts", db::DataType::kInt64},
                    {"lon", db::DataType::kDouble},
                    {"lat", db::DataType::kDouble},
                    {"sog", db::DataType::kDouble},
                    {"cog", db::DataType::kDouble},
                    {"cell", db::DataType::kInt64}};
  db::Table table(schema);
  for (const ais::Trip& trip : trips) {
    for (const ais::AisRecord& r : trip.points) {
      const hex::CellId cell = hex::LatLngToCell(r.pos, resolution);
      table.column(0).AppendInt(trip.trip_id);
      table.column(1).AppendInt(r.mmsi);
      table.column(2).AppendInt(r.ts);
      table.column(3).AppendDouble(r.pos.lng);
      table.column(4).AppendDouble(r.pos.lat);
      table.column(5).AppendDouble(r.sog);
      table.column(6).AppendDouble(r.cog);
      table.column(7).AppendInt(static_cast<int64_t>(cell));
    }
  }
  return table;
}

namespace {

// The stage functions read TripsToTable's typed columns directly; a column
// of another type would index an empty value vector, so it is refused.
Result<const db::Column*> TypedColumn(const db::Table& table,
                                      const std::string& name,
                                      db::DataType type) {
  HABIT_ASSIGN_OR_RETURN(const db::Column* col, table.GetColumn(name));
  if (col->type() != type) {
    return Status::InvalidArgument("column '" + name + "' holds " +
                                   db::DataTypeToString(col->type()) +
                                   ", expected " + db::DataTypeToString(type));
  }
  return col;
}

int64_t ApproxCountDistinct(std::vector<uint64_t>* keys, int precision) {
  return static_cast<int64_t>(
      std::llround(sketch::HyperLogLog::EstimateDistinct(*keys, precision)));
}

}  // namespace

Result<db::Table> ComputeCellStats(const db::Table& ais_table,
                                   const HabitConfig& config) {
  // SELECT cell, count(*), approx_count_distinct(mmsi),
  //        median(lon), median(lat), median(sog), median(cog)
  // FROM ais GROUP BY cell
  // as one sort by (cell, row) — a stable sort by cell, so every median is
  // fed its group's values in input order — and a scan over the runs.
  HABIT_ASSIGN_OR_RETURN(const db::Column* cell,
                         TypedColumn(ais_table, "cell", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(const db::Column* mmsi,
                         TypedColumn(ais_table, "mmsi", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lon,
                         TypedColumn(ais_table, "lon", db::DataType::kDouble));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lat,
                         TypedColumn(ais_table, "lat", db::DataType::kDouble));
  HABIT_ASSIGN_OR_RETURN(const db::Column* sog,
                         TypedColumn(ais_table, "sog", db::DataType::kDouble));
  HABIT_ASSIGN_OR_RETURN(const db::Column* cog,
                         TypedColumn(ais_table, "cog", db::DataType::kDouble));

  const size_t n = ais_table.num_rows();
  std::vector<std::pair<int64_t, size_t>> order(n);
  for (size_t r = 0; r < n; ++r) order[r] = {cell->GetInt(r), r};
  std::sort(order.begin(), order.end());

  db::Table out(db::Schema{{"cell", db::DataType::kInt64},
                           {"cnt", db::DataType::kInt64},
                           {"vessels", db::DataType::kInt64},
                           {"med_lon", db::DataType::kDouble},
                           {"med_lat", db::DataType::kDouble},
                           {"med_sog", db::DataType::kDouble},
                           {"med_cog", db::DataType::kDouble}});
  std::vector<uint64_t> vessels;
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    sketch::ExactMedian med_lon, med_lat, med_sog, med_cog;
    vessels.clear();
    for (end = begin; end < n && order[end].first == order[begin].first;
         ++end) {
      const size_t r = order[end].second;
      vessels.push_back(static_cast<uint64_t>(mmsi->GetInt(r)));
      med_lon.Add(lon->GetDouble(r));
      med_lat.Add(lat->GetDouble(r));
      med_sog.Add(sog->GetDouble(r));
      med_cog.Add(cog->GetDouble(r));
    }
    out.column(0).AppendInt(order[begin].first);
    out.column(1).AppendInt(static_cast<int64_t>(end - begin));
    out.column(2).AppendInt(
        ApproxCountDistinct(&vessels, config.hll_precision));
    out.column(3).AppendDouble(med_lon.Median());
    out.column(4).AppendDouble(med_lat.Median());
    out.column(5).AppendDouble(med_sog.Median());
    out.column(6).AppendDouble(med_cog.Median());
  }
  return out;
}

Result<db::Table> ComputeTransitionStats(const db::Table& ais_table,
                                         const HabitConfig& config) {
  // WITH lagged AS (SELECT *, LAG(cell) OVER (PARTITION BY trip_id
  //                                           ORDER BY ts) AS lag_cell ...)
  // SELECT lag_cell, cell, approx_count_distinct(trip_id) AS transitions
  // FROM lagged WHERE lag_cell IS NOT NULL AND lag_cell <> cell
  // GROUP BY lag_cell, cell
  // as a sort by (trip_id, ts, row) — a stable sort of each trip_id
  // partition by ts — whose neighbours give the (lag_cell, cell) steps, then
  // a sort of the steps and a scan over their runs.
  HABIT_ASSIGN_OR_RETURN(
      const db::Column* trip_col,
      TypedColumn(ais_table, "trip_id", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(const db::Column* ts_col,
                         TypedColumn(ais_table, "ts", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(const db::Column* cell_col,
                         TypedColumn(ais_table, "cell", db::DataType::kInt64));

  struct Point {
    int64_t trip_id;
    int64_t ts;
    size_t row;
    auto operator<=>(const Point&) const = default;
  };
  const size_t n = ais_table.num_rows();
  std::vector<Point> points(n);
  for (size_t r = 0; r < n; ++r) {
    points[r] = {trip_col->GetInt(r), ts_col->GetInt(r), r};
  }
  std::sort(points.begin(), points.end());

  struct Step {
    int64_t lag_cell;
    int64_t cell;
    int64_t trip_id;
    auto operator<=>(const Step&) const = default;
  };
  std::vector<Step> steps;
  for (size_t i = 1; i < n; ++i) {
    if (points[i].trip_id != points[i - 1].trip_id) continue;
    const int64_t lag_cell = cell_col->GetInt(points[i - 1].row);
    const int64_t cell = cell_col->GetInt(points[i].row);
    if (lag_cell != cell) steps.push_back({lag_cell, cell, points[i].trip_id});
  }
  std::sort(steps.begin(), steps.end());

  // Augment each group with the hex grid distance of its transition
  // (h3_grid_distance(lag_cl, cl) in the paper).
  db::Table out(db::Schema{{"lag_cell", db::DataType::kInt64},
                           {"cell", db::DataType::kInt64},
                           {"transitions", db::DataType::kInt64},
                           {"grid_distance", db::DataType::kInt64}});
  std::vector<uint64_t> trips;
  for (size_t begin = 0, end = 0; begin < steps.size(); begin = end) {
    const Step& first = steps[begin];
    trips.clear();
    for (end = begin; end < steps.size() &&
                      steps[end].lag_cell == first.lag_cell &&
                      steps[end].cell == first.cell;
         ++end) {
      trips.push_back(static_cast<uint64_t>(steps[end].trip_id));
    }
    out.column(0).AppendInt(first.lag_cell);
    out.column(1).AppendInt(first.cell);
    out.column(2).AppendInt(ApproxCountDistinct(&trips, config.hll_precision));
    const auto dist =
        hex::GridDistance(static_cast<hex::CellId>(first.lag_cell),
                          static_cast<hex::CellId>(first.cell));
    if (dist.ok()) {
      out.column(3).AppendInt(dist.value());
    } else {
      out.column(3).AppendNull();
    }
  }
  return out;
}

Result<graph::Digraph> BuildTransitionGraph(const db::Table& cell_stats,
                                            const db::Table& transition_stats,
                                            const HabitConfig& config) {
  graph::Digraph g;

  HABIT_ASSIGN_OR_RETURN(const db::Column* cell_col,
                         cell_stats.GetColumn("cell"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* cnt_col, cell_stats.GetColumn("cnt"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* vessels_col,
                         cell_stats.GetColumn("vessels"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lon_col,
                         cell_stats.GetColumn("med_lon"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lat_col,
                         cell_stats.GetColumn("med_lat"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* sog_col,
                         cell_stats.GetColumn("med_sog"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* cog_col,
                         cell_stats.GetColumn("med_cog"));

  for (size_t r = 0; r < cell_stats.num_rows(); ++r) {
    const auto cell = static_cast<hex::CellId>(cell_col->GetInt(r));
    graph::NodeAttrs attrs;
    attrs.median_pos = geo::LatLng{lat_col->GetDouble(r), lon_col->GetDouble(r)};
    attrs.center_pos = hex::CellToLatLng(cell);
    attrs.message_count = cnt_col->GetInt(r);
    attrs.distinct_vessels = vessels_col->GetInt(r);
    attrs.median_sog = sog_col->GetDouble(r);
    attrs.median_cog = cog_col->GetDouble(r);
    g.AddNode(cell, attrs);
  }

  HABIT_ASSIGN_OR_RETURN(const db::Column* lag_col,
                         transition_stats.GetColumn("lag_cell"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* to_col,
                         transition_stats.GetColumn("cell"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* trans_col,
                         transition_stats.GetColumn("transitions"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* dist_col,
                         transition_stats.GetColumn("grid_distance"));

  // Accumulate transition counts per directed cell pair: one step per
  // transition, sorted, summed per run. With expand_transitions, a jump of
  // grid distance g > 1 contributes its count to every consecutive pair
  // along the hex grid path between the two cells (the discretization
  // skipped those cells, not the vessel).
  struct Step {
    hex::CellId u;
    hex::CellId v;
    int64_t transitions;
  };
  // The most steps row r can expand into: its grid distance.
  const auto max_steps = [&](size_t r) -> int64_t {
    const int64_t grid_dist = dist_col->IsValid(r) ? dist_col->GetInt(r) : 1;
    return config.expand_transitions ? std::max<int64_t>(1, grid_dist) : 1;
  };
  int64_t capacity = 0;
  for (size_t r = 0; r < transition_stats.num_rows(); ++r) {
    capacity += max_steps(r);
  }
  std::vector<Step> steps;
  steps.reserve(static_cast<size_t>(capacity));
  for (size_t r = 0; r < transition_stats.num_rows(); ++r) {
    const auto u = static_cast<hex::CellId>(lag_col->GetInt(r));
    const auto v = static_cast<hex::CellId>(to_col->GetInt(r));
    const int64_t transitions = trans_col->GetInt(r);
    if (max_steps(r) > 1) {
      auto path = hex::GridPathCells(u, v);
      if (path.ok() && path.value().size() >= 2) {
        const auto& cells = path.value();
        for (size_t i = 1; i < cells.size(); ++i) {
          steps.push_back({cells[i - 1], cells[i], transitions});
        }
        continue;
      }
    }
    steps.push_back({u, v, transitions});
  }
  std::sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });

  // Intermediate cells materialized by the expansion carry no AIS
  // statistics; give them their geometric center as the median position so
  // the inverse projection stays well-defined.
  const auto add_center_node = [&g](hex::CellId cell) {
    if (g.HasNode(cell)) return;
    graph::NodeAttrs attrs;
    attrs.center_pos = hex::CellToLatLng(cell);
    attrs.median_pos = attrs.center_pos;
    g.AddNode(cell, attrs);
  };
  for (size_t begin = 0, end = 0; begin < steps.size(); begin = end) {
    const hex::CellId u = steps[begin].u;
    const hex::CellId v = steps[begin].v;
    int64_t transitions = 0;
    for (end = begin; end < steps.size() && steps[end].u == u &&
                      steps[end].v == v;
         ++end) {
      transitions += steps[end].transitions;
    }
    if (begin == 0 || steps[begin - 1].u != u) add_center_node(u);
    add_center_node(v);
    const auto dist = hex::GridDistance(u, v);
    graph::EdgeAttrs attrs;
    attrs.transitions = transitions;
    attrs.grid_distance = dist.ok() ? dist.value() : 1;
    attrs.weight = EdgeCost(config.edge_cost, transitions) *
                   static_cast<double>(std::max<int64_t>(1, attrs.grid_distance));
    g.AddEdge(u, v, attrs);
  }
  return g;
}

Result<graph::Digraph> BuildGraphFromTrips(const std::vector<ais::Trip>& trips,
                                           const HabitConfig& config) {
  if (config.resolution < 0 || config.resolution > hex::kMaxResolution) {
    return Status::InvalidArgument("resolution out of range");
  }
  const db::Table ais_table = TripsToTable(trips, config.resolution);
  HABIT_ASSIGN_OR_RETURN(db::Table cell_stats,
                         ComputeCellStats(ais_table, config));
  HABIT_ASSIGN_OR_RETURN(db::Table transition_stats,
                         ComputeTransitionStats(ais_table, config));
  return BuildTransitionGraph(cell_stats, transition_stats, config);
}

}  // namespace habit::core
