// Trajectory imputation (Section 3.3) and simplification (Section 3.4):
// snap gap endpoints to graph nodes, run the shared CSR A* engine over
// transition costs, project the cell sequence back to coordinates (center
// or data-driven median), and smooth the result with RDP.
#pragma once

#include <vector>

#include "core/status.h"
#include "geo/polyline.h"
#include "graph/compact_graph.h"
#include "graph/search.h"
#include "habit/config.h"
#include "hexgrid/hexgrid.h"

namespace habit::core {

/// \brief An imputed gap fill.
struct Imputation {
  /// The imputed path in coordinates, starting at the gap start point and
  /// ending at the gap end point (after inverse projection + RDP).
  geo::Polyline path;
  /// The traversed cell sequence (before simplification).
  std::vector<hex::CellId> cells;
  /// Timestamps assigned to `path` points by arc-length interpolation
  /// between the gap boundary times (same size as `path`).
  std::vector<int64_t> timestamps;
  /// Search effort (settled nodes), for performance analysis.
  size_t expanded = 0;
};

/// \brief Imputes gaps against a frozen transition graph.
///
/// The imputer owns no search state of its own: all queries run through the
/// flat graph::SearchScratch (generation-stamped distance/parent/settled
/// arrays keyed by dense NodeIndex), either a per-call local one or a
/// caller-owned scratch shared across a batch.
class Imputer {
 public:
  /// Reusable search working state (one per querying thread).
  using SearchScratch = graph::SearchScratch;

  /// The frozen graph must outlive the imputer.
  Imputer(const graph::CompactGraph* graph, const HabitConfig& config);

  /// \brief Fills the gap between two boundary reports.
  ///
  /// `t_start` / `t_end` are the boundary timestamps used to assign times to
  /// imputed points. Fails with kInvalidArgument for malformed coordinates
  /// and kUnreachable when the graph cannot connect the endpoints
  /// (disconnected components or snap failure).
  Result<Imputation> Impute(const geo::LatLng& gap_start,
                            const geo::LatLng& gap_end, int64_t t_start = 0,
                            int64_t t_end = 0) const;

  /// Same as above but reuses `scratch` for the search working state, which
  /// amortizes allocation across a batch of queries (the hot path behind
  /// api::ImputationModel::ImputeBatch).
  Result<Imputation> Impute(const geo::LatLng& gap_start,
                            const geo::LatLng& gap_end, int64_t t_start,
                            int64_t t_end, SearchScratch* scratch) const;

  /// Maps a point to its graph node: its own cell if present, else the
  /// nearest node cell by expanding k-ring search (Section 3.3).
  Result<hex::CellId> SnapToNode(const geo::LatLng& p) const;

  /// Where a snap candidate will sit in the search, which decides the
  /// degree filter applied (sources need out-edges, targets in-edges).
  enum class SnapRole { kAny, kSource, kTarget };

  /// How many snap candidates Impute keeps per endpoint.
  static constexpr size_t kMaxSnapCandidates = 48;

  /// Nearby candidate graph nodes for `p`, sorted by distance. Candidates
  /// from several rings are returned so the search can avoid snapping onto
  /// a disconnected fragment or a directed dead-end of the transition
  /// graph; the role filter reads the frozen graph's out-/in-degree arrays.
  /// These are the cells Impute seeds and targets, in the same order.
  std::vector<hex::CellId> SnapCandidates(
      const geo::LatLng& p, SnapRole role = SnapRole::kAny,
      size_t max_candidates = kMaxSnapCandidates) const;

  /// Inverse projection of one cell under the configured option p.
  geo::LatLng ProjectCell(hex::CellId cell) const;

  /// Turns ALT landmark acceleration on or off for subsequent queries.
  /// Only effective when the frozen graph carries landmark columns (a v3
  /// snapshot saved with landmarks=k); otherwise queries stay on the plain
  /// zero-heuristic baseline. On or off, imputed outputs are identical.
  void set_use_landmarks(bool on) { use_landmarks_ = on; }
  bool use_landmarks() const { return use_landmarks_; }

 private:
  /// A snap candidate with what the snap learned about it: its distance
  /// from the snapped point and its node, which the search reuses as the
  /// seed cost and the seed or target node.
  struct Candidate {
    double meters;
    hex::CellId cell;
    graph::NodeIndex node;
  };

  /// The snap behind SnapCandidates: one ring walk, one IndexOf and one
  /// distance per cell, sorted by distance and cut to `max_candidates`.
  std::vector<Candidate> Snap(const geo::LatLng& p, SnapRole role,
                              size_t max_candidates) const;

  /// ProjectCell for a cell whose node index is known.
  geo::LatLng ProjectNode(graph::NodeIndex node, hex::CellId cell) const;

  const graph::CompactGraph* graph_;
  HabitConfig config_;
  bool use_landmarks_ = false;
};

}  // namespace habit::core
