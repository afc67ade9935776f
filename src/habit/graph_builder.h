// Graph generation (Section 3.2): projects trips onto the hex grid and
// evaluates the paper's SQL — a per-cell GROUP BY and a per-trip LAG window
// followed by a GROUP BY over transitions — as sort-and-scan passes over the
// trips table's columns, then assembles the transition graph with per-cell
// statistics. Distinct counts are HyperLogLog estimates, bit-identical to a
// dense sketch per group.
#pragma once

#include <vector>

#include "ais/ais.h"
#include "core/status.h"
#include "graph/digraph.h"
#include "habit/config.h"
#include "minidb/table.h"

namespace habit::core {

/// \brief Converts trips to the flat AIS table the stages consume. Columns:
/// trip_id, mmsi, ts, lon, lat, sog, cog, cell (the H3 cell id at the
/// configured resolution, stored as int64).
db::Table TripsToTable(const std::vector<ais::Trip>& trips, int resolution);

/// \brief The per-cell statistics table (group by cl):
/// cell, cnt, vessels, med_lon, med_lat, med_sog, med_cog. One stable sort
/// by cell; each group's medians see its values in input order.
Result<db::Table> ComputeCellStats(const db::Table& ais_table,
                                   const HabitConfig& config);

/// \brief The transition statistics table (group by (lag_cl, cl), with
/// lag_cl != cl): lag_cell, cell, transitions, grid_distance. LAG
/// partitions by trip_id value and orders by ts, ties in input order.
Result<db::Table> ComputeTransitionStats(const db::Table& ais_table,
                                         const HabitConfig& config);

/// \brief Assembles the weighted digraph from the two statistics tables.
/// Nodes carry median lon/lat, message count, distinct vessels; edges carry
/// transition counts and the configured traversal cost.
Result<graph::Digraph> BuildTransitionGraph(const db::Table& cell_stats,
                                            const db::Table& transition_stats,
                                            const HabitConfig& config);

/// Convenience: full Section 3.2 pipeline from trips to graph.
Result<graph::Digraph> BuildGraphFromTrips(const std::vector<ais::Trip>& trips,
                                           const HabitConfig& config);

/// Edge traversal cost under the policy, given a transition count.
double EdgeCost(EdgeCostPolicy policy, int64_t transitions);

}  // namespace habit::core
