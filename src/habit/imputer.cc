#include "habit/imputer.h"

#include <algorithm>
#include <cmath>

#include "graph/landmarks.h"

namespace habit::core {

Imputer::Imputer(const graph::CompactGraph* graph, const HabitConfig& config)
    : graph_(graph), config_(config) {}

std::vector<Imputer::Candidate> Imputer::Snap(const geo::LatLng& p,
                                              SnapRole role,
                                              size_t max_candidates) const {
  std::vector<Candidate> found;
  if (!p.IsValid()) return found;
  const hex::CellId own = hex::LatLngToCell(p, config_.resolution);
  if (own == hex::kInvalidCell) return found;

  // A source must have somewhere to go; a target must be enterable. Both
  // checks are O(1) reads of the frozen graph's degree arrays. A kept
  // cell's distance is computed here, once: the cell-center projection and
  // haversine are trig-heavy, and the sort and the seeds both need them.
  auto consider = [&](hex::CellId c) {
    const graph::NodeIndex idx = graph_->IndexOf(c);
    if (idx == graph::kInvalidNodeIndex) return;
    if (role == SnapRole::kSource && graph_->OutDegree(idx) == 0) return;
    if (role == SnapRole::kTarget && graph_->InDegree(idx) == 0) return;
    found.push_back({geo::HaversineMeters(p, hex::CellToLatLng(c)), c, idx});
  };
  consider(own);

  // Expand rings a few steps beyond the first hit so the search has
  // alternatives when the nearest nodes belong to dead-end fragments.
  int rings_after_hit = 0;
  for (int k = 1; k <= config_.max_snap_ring; ++k) {
    if (!found.empty() && ++rings_after_hit > 12) break;
    if (found.size() >= max_candidates) break;
    hex::ForEachRingCell(own, k, consider);
  }
  std::sort(found.begin(), found.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.meters < b.meters;
            });
  if (found.size() > max_candidates) found.resize(max_candidates);
  return found;
}

std::vector<hex::CellId> Imputer::SnapCandidates(
    const geo::LatLng& p, SnapRole role, size_t max_candidates) const {
  std::vector<hex::CellId> cells;
  for (const Candidate& c : Snap(p, role, max_candidates)) {
    cells.push_back(c.cell);
  }
  return cells;
}

Result<hex::CellId> Imputer::SnapToNode(const geo::LatLng& p) const {
  if (!p.IsValid()) {
    return Status::InvalidArgument("invalid gap endpoint " + p.ToString());
  }
  const std::vector<hex::CellId> candidates =
      SnapCandidates(p, SnapRole::kAny, 1);
  if (candidates.empty()) {
    return Status::Unreachable("no graph node within " +
                               std::to_string(config_.max_snap_ring) +
                               " rings of " + p.ToString());
  }
  return candidates.front();
}

geo::LatLng Imputer::ProjectCell(hex::CellId cell) const {
  return ProjectNode(graph_->IndexOf(cell), cell);
}

geo::LatLng Imputer::ProjectNode(graph::NodeIndex node,
                                 hex::CellId cell) const {
  if (config_.projection == Projection::kDataMedian &&
      node != graph::kInvalidNodeIndex && graph_->has_attrs() &&
      graph_->MessageCount(node) > 0) {
    return graph_->MedianPos(node);
  }
  return hex::CellToLatLng(cell);
}

Result<Imputation> Imputer::Impute(const geo::LatLng& gap_start,
                                   const geo::LatLng& gap_end,
                                   int64_t t_start, int64_t t_end) const {
  SearchScratch scratch;
  return Impute(gap_start, gap_end, t_start, t_end, &scratch);
}

Result<Imputation> Imputer::Impute(const geo::LatLng& gap_start,
                                   const geo::LatLng& gap_end,
                                   int64_t t_start, int64_t t_end,
                                   SearchScratch* scratch) const {
  if (!gap_start.IsValid() || !gap_end.IsValid()) {
    return Status::InvalidArgument("invalid gap endpoint " +
                                   gap_start.ToString() + " -> " +
                                   gap_end.ToString());
  }
  const std::vector<Candidate> src =
      Snap(gap_start, SnapRole::kSource, kMaxSnapCandidates);
  const std::vector<Candidate> dst =
      Snap(gap_end, SnapRole::kTarget, kMaxSnapCandidates);
  if (src.empty() || dst.empty()) {
    return Status::Unreachable(
        "gap endpoint could not be snapped to the transition graph");
  }

  // Trivial case: both endpoints share a candidate cell.
  for (const Candidate& s : src) {
    if (s.cell == dst.front().cell &&
        s.cell == hex::LatLngToCell(gap_end, config_.resolution)) {
      Imputation result;
      result.cells = {s.cell};
      result.path = {gap_start, gap_end};
      result.timestamps = {t_start, t_end};
      return result;
    }
  }

  // Multi-source / multi-target search: every source candidate is seeded
  // with a cost proportional to its snap displacement (so the search
  // prefers nearby, *connected* entry points without committing to one up
  // front); the search settles the first destination candidate reached.
  //
  // Costs are measured in "hops" (edge weights are >= 1 per grid step for
  // the hop-based policies), so displacements are converted via the cell
  // pitch at this resolution.
  const double cell_pitch_m =
      hex::EdgeLengthMeters(config_.resolution) * 1.7320508;

  std::vector<graph::SearchSeed> seeds;
  seeds.reserve(src.size());
  for (const Candidate& s : src) {
    seeds.push_back({s.node, s.meters / cell_pitch_m});
  }

  // The target set is stamped into the scratch once, so every search of
  // this query tests a settled node with one load.
  scratch->PrepareTargets(graph_->num_nodes());
  for (const Candidate& d : dst) scratch->MarkTarget(d.node);
  const auto is_target = [scratch](graph::NodeIndex u) {
    return scratch->IsTarget(u);
  };

  // The baseline is plain Dijkstra (zero heuristic); with landmarks
  // enabled, RunSearchAlt accelerates it through the snapshot's ALT
  // columns while returning byte-identical paths (see graph/landmarks.h).
  graph::CsrSearch run;
  if (use_landmarks_ && graph_->num_landmarks() > 0) {
    std::vector<graph::NodeIndex> targets;
    targets.reserve(dst.size());
    for (const Candidate& d : dst) targets.push_back(d.node);
    run = graph::RunSearchAlt(*graph_, seeds, is_target, targets, *scratch);
  } else {
    run = graph::RunSearch(
        *graph_, seeds, is_target, [](graph::NodeIndex) { return 0.0; },
        *scratch);
  }
  if (!run.found) {
    return Status::Unreachable(
        "no snap candidate pair is connected in the transition graph");
  }

  Imputation result;
  result.expanded = run.expanded;
  const std::vector<graph::NodeIndex> nodes =
      graph::ReconstructPath(*scratch, run.reached);
  result.cells.reserve(nodes.size());
  for (const graph::NodeIndex i : nodes) {
    result.cells.push_back(static_cast<hex::CellId>(graph_->IdOf(i)));
  }

  // Inverse projection (Section 3.3): cells -> coordinates under option p,
  // bracketed by the true gap boundary points.
  geo::Polyline line;
  line.reserve(result.cells.size() + 2);
  line.push_back(gap_start);
  for (size_t k = 0; k < nodes.size(); ++k) {
    const geo::LatLng p = ProjectNode(nodes[k], result.cells[k]);
    if (geo::HaversineMeters(line.back(), p) > 1.0) line.push_back(p);
  }
  if (geo::HaversineMeters(line.back(), gap_end) > 1.0 || line.size() == 1) {
    line.push_back(gap_end);
  } else {
    line.back() = gap_end;
  }

  // Section 3.4: RDP simplification for a navigable, smooth path.
  result.path = geo::RdpSimplify(line, config_.rdp_tolerance_m);

  // Timestamps by arc-length interpolation across the gap duration.
  result.timestamps.resize(result.path.size(), t_start);
  const double total = geo::PolylineLengthMeters(result.path);
  if (total > 0 && t_end > t_start) {
    double acc = 0;
    for (size_t i = 1; i < result.path.size(); ++i) {
      acc += geo::HaversineMeters(result.path[i - 1], result.path[i]);
      result.timestamps[i] = t_start + static_cast<int64_t>(std::llround(
                                           (t_end - t_start) * (acc / total)));
    }
  } else if (!result.timestamps.empty()) {
    result.timestamps.back() = t_end;
  }
  return result;
}

}  // namespace habit::core
