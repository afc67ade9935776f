#include "habit/serialize.h"

#include <algorithm>

#include "graph/snapshot.h"
#include "habit/graph_builder.h"
#include "hexgrid/hexgrid.h"
#include "minidb/csv.h"

namespace habit::core {

namespace {

// CSV columns are type-inferred, so a corrupt file can hand back a column
// of the wrong type — and reading it through the wrong accessor (GetInt on
// a double column) indexes an empty value vector. Validate before touching
// any row. Double reads accept int64 columns (GetDouble widens).
Status RequireNumericColumn(const db::Column* col, const char* name,
                            bool need_int) {
  if (col->type() == db::DataType::kInt64 ||
      (!need_int && col->type() == db::DataType::kDouble)) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::string("corrupt model file: column '") + name + "' holds " +
      db::DataTypeToString(col->type()) +
      (need_int ? ", expected int64" : ", expected a numeric type"));
}

}  // namespace

db::Table GraphNodesToTable(const graph::CompactGraph& g) {
  db::Table t(db::Schema{{"cell", db::DataType::kInt64},
                         {"med_lon", db::DataType::kDouble},
                         {"med_lat", db::DataType::kDouble},
                         {"cnt", db::DataType::kInt64},
                         {"vessels", db::DataType::kInt64},
                         {"med_sog", db::DataType::kDouble},
                         {"med_cog", db::DataType::kDouble}});
  g.ForEachNode([&](graph::NodeId id, const graph::NodeAttrs& attrs) {
    t.column(0).AppendInt(static_cast<int64_t>(id));
    t.column(1).AppendDouble(attrs.median_pos.lng);
    t.column(2).AppendDouble(attrs.median_pos.lat);
    t.column(3).AppendInt(attrs.message_count);
    t.column(4).AppendInt(attrs.distinct_vessels);
    t.column(5).AppendDouble(attrs.median_sog);
    t.column(6).AppendDouble(attrs.median_cog);
  });
  return t;
}

db::Table GraphEdgesToTable(const graph::CompactGraph& g) {
  db::Table t(db::Schema{{"src", db::DataType::kInt64},
                         {"dst", db::DataType::kInt64},
                         {"transitions", db::DataType::kInt64},
                         {"grid_distance", db::DataType::kInt64}});
  g.ForEachEdge([&](graph::NodeId u, graph::NodeId v,
                    const graph::EdgeAttrs& attrs) {
    t.column(0).AppendInt(static_cast<int64_t>(u));
    t.column(1).AppendInt(static_cast<int64_t>(v));
    t.column(2).AppendInt(attrs.transitions);
    t.column(3).AppendInt(attrs.grid_distance);
  });
  return t;
}

Status SaveGraphCsv(const graph::CompactGraph& g,
                    const std::string& prefix) {
  HABIT_RETURN_NOT_OK(
      db::WriteCsv(GraphNodesToTable(g), prefix + "_nodes.csv"));
  return db::WriteCsv(GraphEdgesToTable(g), prefix + "_edges.csv");
}

Result<graph::Digraph> LoadGraphCsv(const std::string& prefix,
                                    const HabitConfig& config) {
  HABIT_ASSIGN_OR_RETURN(db::Table nodes,
                         db::ReadCsv(prefix + "_nodes.csv"));
  HABIT_ASSIGN_OR_RETURN(db::Table edges,
                         db::ReadCsv(prefix + "_edges.csv"));

  graph::Digraph g;
  {
    HABIT_ASSIGN_OR_RETURN(const db::Column* cell, nodes.GetColumn("cell"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* lon, nodes.GetColumn("med_lon"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* lat, nodes.GetColumn("med_lat"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* cnt, nodes.GetColumn("cnt"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* vessels,
                           nodes.GetColumn("vessels"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* sog, nodes.GetColumn("med_sog"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* cog, nodes.GetColumn("med_cog"));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(cell, "cell", true));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(lon, "med_lon", false));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(lat, "med_lat", false));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(cnt, "cnt", true));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(vessels, "vessels", true));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(sog, "med_sog", false));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(cog, "med_cog", false));
    for (size_t r = 0; r < nodes.num_rows(); ++r) {
      const auto id = static_cast<hex::CellId>(cell->GetInt(r));
      if (!hex::IsValidCell(id)) {
        return Status::InvalidArgument("corrupt node row " +
                                       std::to_string(r));
      }
      graph::NodeAttrs attrs;
      attrs.median_pos = geo::LatLng{lat->GetDouble(r), lon->GetDouble(r)};
      attrs.center_pos = hex::CellToLatLng(id);
      attrs.message_count = cnt->GetInt(r);
      attrs.distinct_vessels = vessels->GetInt(r);
      attrs.median_sog = sog->GetDouble(r);
      attrs.median_cog = cog->GetDouble(r);
      g.AddNode(id, attrs);
    }
  }
  {
    HABIT_ASSIGN_OR_RETURN(const db::Column* src, edges.GetColumn("src"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* dst, edges.GetColumn("dst"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* trans,
                           edges.GetColumn("transitions"));
    HABIT_ASSIGN_OR_RETURN(const db::Column* dist,
                           edges.GetColumn("grid_distance"));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(src, "src", true));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(dst, "dst", true));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(trans, "transitions", true));
    HABIT_RETURN_NOT_OK(RequireNumericColumn(dist, "grid_distance", true));
    for (size_t r = 0; r < edges.num_rows(); ++r) {
      graph::EdgeAttrs attrs;
      attrs.transitions = trans->GetInt(r);
      attrs.grid_distance = std::max<int64_t>(1, dist->GetInt(r));
      attrs.weight = EdgeCost(config.edge_cost, attrs.transitions) *
                     static_cast<double>(attrs.grid_distance);
      const auto u = static_cast<graph::NodeId>(src->GetInt(r));
      const auto v = static_cast<graph::NodeId>(dst->GetInt(r));
      // Both endpoints must come from the nodes table: Digraph::AddEdge
      // auto-creates missing nodes with default attributes, so a corrupt
      // edges file would otherwise load into a graph with phantom cells at
      // lat/lng (0,0) that the snap-candidate search could select.
      if (!g.HasNode(u) || !g.HasNode(v)) {
        return Status::InvalidArgument(
            "corrupt edge row " + std::to_string(r) + ": endpoint " +
            std::to_string(g.HasNode(u) ? v : u) + " is not in the nodes "
            "table");
      }
      g.AddEdge(u, v, attrs);
    }
  }
  return g;
}

Status SaveModelSnapshot(const HabitFramework& fw, const std::string& path) {
  const HabitConfig& config = fw.config();
  graph::SnapshotWriter writer;
  writer.I64(config.resolution);
  writer.U32(static_cast<uint32_t>(config.projection));
  writer.F64(config.rdp_tolerance_m);
  writer.U32(static_cast<uint32_t>(config.edge_cost));
  writer.I64(config.hll_precision);
  writer.I64(config.max_snap_ring);
  writer.U32(config.expand_transitions ? 1 : 0);
  graph::AppendGraphSection(writer, fw.graph());
  return writer.WriteToFile(path, graph::SnapshotKind::kHabitModel);
}

Result<std::unique_ptr<HabitFramework>> LoadModelSnapshot(
    const std::string& path, bool mapped) {
  HABIT_ASSIGN_OR_RETURN(
      graph::SnapshotReader reader,
      graph::SnapshotReader::Open(path, graph::SnapshotKind::kHabitModel,
                                  mapped));
  HabitConfig config;
  HABIT_ASSIGN_OR_RETURN(const int64_t resolution, reader.I64());
  HABIT_ASSIGN_OR_RETURN(const uint32_t projection, reader.U32());
  HABIT_ASSIGN_OR_RETURN(config.rdp_tolerance_m, reader.F64());
  HABIT_ASSIGN_OR_RETURN(const uint32_t edge_cost, reader.U32());
  HABIT_ASSIGN_OR_RETURN(const int64_t hll_precision, reader.I64());
  HABIT_ASSIGN_OR_RETURN(const int64_t max_snap_ring, reader.I64());
  HABIT_ASSIGN_OR_RETURN(const uint32_t expand, reader.U32());
  if (resolution < 0 || resolution > hex::kMaxResolution ||
      projection > static_cast<uint32_t>(Projection::kDataMedian) ||
      edge_cost >
          static_cast<uint32_t>(EdgeCostPolicy::kHopsThenFrequency)) {
    return Status::IoError("HABIT snapshot '" + path +
                           "' carries an invalid configuration");
  }
  if (const Status ring = CheckSnapRing(max_snap_ring); !ring.ok()) {
    return Status::IoError("HABIT snapshot '" + path +
                           "' carries an invalid configuration: " +
                           ring.message());
  }
  config.resolution = static_cast<int>(resolution);
  config.projection = static_cast<Projection>(projection);
  config.edge_cost = static_cast<EdgeCostPolicy>(edge_cost);
  config.hll_precision = static_cast<int>(hll_precision);
  config.max_snap_ring = static_cast<int>(max_snap_ring);
  config.expand_transitions = expand != 0;
  HABIT_ASSIGN_OR_RETURN(graph::CompactGraph frozen,
                         graph::ReadGraphSection(reader));
  if (!reader.AtEnd()) {
    return Status::IoError("HABIT snapshot '" + path +
                           "' has trailing bytes");
  }
  return HabitFramework::FromFrozen(std::move(frozen), config);
}

}  // namespace habit::core
