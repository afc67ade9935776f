// HABIT configuration: the parameters the paper fine-tunes in Section 4.2.
#pragma once

#include <cstdint>
#include <string>

#include "core/status.h"

namespace habit::core {

/// Inverse projection option p (Section 3.3 / Figure 2): how an H3 cell on
/// the imputed path is mapped back to coordinates.
enum class Projection {
  kCellCenter,  ///< p = c: geometric center of the cell
  kDataMedian,  ///< p = w: median of historical AIS positions in the cell
};

const char* ProjectionToString(Projection p);

/// Edge traversal cost used by the A* search (Section 3.3 minimizes
/// transitions, "effectively revealing the most frequent path").
enum class EdgeCostPolicy {
  /// Every transition costs 1 (pure hop count).
  kHops,
  /// Frequent transitions are cheaper: 1 / ln(e + transitions).
  kInverseFrequency,
  /// Hop count with frequency tie-breaking: 1 + 1/(1 + transitions).
  /// This is the default; it minimizes transitions first and prefers the
  /// historically busiest sequence among equal-hop paths.
  kHopsThenFrequency,
};

const char* EdgeCostPolicyToString(EdgeCostPolicy p);

/// Largest legal HabitConfig::max_snap_ring. An endpoint with no graph node
/// nearby walks every ring up to the radius, at a cost that grows with
/// roughly its square (seconds per query at 20,000 rings), so the radius
/// is bounded by a constant rather than left to a spec or a snapshot.
inline constexpr int kMaxSnapRing = 64;

/// OK when `ring` lies in [0, kMaxSnapRing]; InvalidArgument otherwise.
/// Spec parsing and snapshot loading both check through it.
Status CheckSnapRing(int64_t ring);

/// \brief Full HABIT configuration.
struct HabitConfig {
  /// H3 grid resolution r (the paper studies 6..10; default 9).
  int resolution = 9;
  /// Inverse projection option p (default: data-driven median).
  Projection projection = Projection::kDataMedian;
  /// RDP simplification tolerance t in meters (paper: 0..1000; default 250;
  /// 0 disables simplification).
  double rdp_tolerance_m = 250.0;
  /// Edge cost policy for the shortest-path search.
  EdgeCostPolicy edge_cost = EdgeCostPolicy::kHopsThenFrequency;
  /// HyperLogLog precision for approximate distinct counts.
  int hll_precision = 12;
  /// Maximum k-ring radius searched when snapping a gap endpoint whose cell
  /// is not a graph node to the nearest node (at most kMaxSnapRing).
  int max_snap_ring = 32;
  /// When a transition jumps over intermediate cells (sparse reporting at a
  /// fine resolution gives h3_grid_distance > 1), also materialize the cells
  /// along the hex grid path between the two endpoints and connect them.
  /// This is the data-driven correction for the information loss introduced
  /// by the H3 discretization; without it the transition graph fragments
  /// when reports are sparser than the cell size.
  bool expand_transitions = true;

  std::string ToString() const;
};

}  // namespace habit::core
