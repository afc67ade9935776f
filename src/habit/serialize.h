// Model persistence: a built HABIT transition graph is two relational
// tables (node statistics, edge statistics), saved and loaded as CSV via
// minidb. The on-disk artifact is exactly what Table 2 of the paper sizes.
//
// Saving reads the frozen CompactGraph (what a built framework carries);
// loading rebuilds the mutable Digraph, which the caller freezes (e.g. via
// HabitFramework::FromGraph) before serving queries.
#pragma once

#include <memory>
#include <string>

#include "core/status.h"
#include "graph/compact_graph.h"
#include "graph/digraph.h"
#include "habit/config.h"
#include "habit/framework.h"
#include "minidb/table.h"

namespace habit::core {

/// Converts the graph's node statistics to a minidb table with columns:
/// cell, med_lon, med_lat, cnt, vessels, med_sog, med_cog.
db::Table GraphNodesToTable(const graph::CompactGraph& g);

/// Converts the graph's edges to a minidb table with columns:
/// src, dst, transitions, grid_distance.
db::Table GraphEdgesToTable(const graph::CompactGraph& g);

/// Writes the graph as `<prefix>_nodes.csv` and `<prefix>_edges.csv`.
Status SaveGraphCsv(const graph::CompactGraph& g, const std::string& prefix);

/// Rebuilds a graph from files written by SaveGraphCsv. Edge weights are
/// recomputed under the given config's edge-cost policy, so a saved model
/// can be reloaded with a different policy (an ablation the benches use).
/// Fails with kInvalidArgument on structurally corrupt files: invalid cell
/// ids in the nodes table, or edges whose endpoints the nodes table does
/// not contain.
Result<graph::Digraph> LoadGraphCsv(const std::string& prefix,
                                    const HabitConfig& config);

/// Writes a built framework as a binary model snapshot: the build
/// configuration followed by the frozen CSR graph section (snapshot kind
/// kHabitModel). Unlike the CSV pair, the artifact is self-describing —
/// loading needs no spec parameters and cannot run the graph under a
/// mismatched resolution or cost policy.
Status SaveModelSnapshot(const HabitFramework& fw, const std::string& path);

/// Cold-starts a framework from a snapshot written by SaveModelSnapshot:
/// one validated bulk read, no Digraph rebuild, no re-freeze. Imputation
/// output is bit-identical to the framework that was saved. With `mapped`
/// true the CSR arrays are served in place from the mmap'd file
/// (O(page-in) cold start, no heap copy, no checksum recompute) — the
/// registry exposes this as "habit:load=...,map=1". Both paths refuse a
/// snap ring radius outside [0, kMaxSnapRing] and run the same structural
/// validation of the graph section.
Result<std::unique_ptr<HabitFramework>> LoadModelSnapshot(
    const std::string& path, bool mapped = false);

}  // namespace habit::core
