// GTI — reimplementation of the graph-based trajectory imputation method of
// Isufaj et al. (SIGSPATIAL 2023) used as the paper's main comparator.
//
// GTI builds a graph over the raw trajectory points themselves: consecutive
// points of the same trip are connected, and additional candidate edges
// connect nearby points across trips, filtered by two radii — rm (meters)
// and rd (degrees). Imputation snaps the gap endpoints to their nearest
// graph nodes and returns the shortest point-path, served by the same
// frozen-CSR search engine as HABIT (the point graph is assembled mutably
// at build time and frozen without attribute columns).
#pragma once

#include <memory>
#include <vector>

#include "ais/ais.h"
#include "core/status.h"
#include "geo/polyline.h"
#include "graph/compact_graph.h"
#include "graph/kdtree.h"
#include "graph/search.h"

namespace habit::baselines {

/// \brief GTI construction parameters (the paper sweeps rm and rd).
struct GtiConfig {
  double rm_meters = 250.0;  ///< candidate-edge radius in meters
  double rd_degrees = 1e-4;  ///< candidate-edge radius in degrees
  /// Training points per trip are thinned to at most one per this many
  /// seconds (0 disables thinning). The paper downsampled DAN to 1- and
  /// 5-minute resampling to try to fit GTI in memory.
  int64_t resample_seconds = 0;
};

/// \brief A built GTI model.
class GtiModel {
 public:
  /// Builds the point graph from training trips.
  static Result<std::unique_ptr<GtiModel>> Build(
      const std::vector<ais::Trip>& trips, const GtiConfig& config);

  /// Writes the model as a binary snapshot (config + point store + frozen
  /// point graph; the KD-tree is rebuilt deterministically on load).
  Status Save(const std::string& path) const;

  /// Cold-starts a model from a snapshot written by Save — no trips, no
  /// candidate-edge search, no re-freeze. Imputation output is identical
  /// to the model that was saved. With `mapped` true the point graph's
  /// CSR arrays are served in place from the mmap'd file (the point store
  /// is still copied: the KD-tree rebuild walks it anyway).
  static Result<std::unique_ptr<GtiModel>> Load(const std::string& path,
                                                bool mapped = false);

  /// Shortest point-path between the snapped gap endpoints. Pass `scratch`
  /// to reuse the search working state across a batch of queries.
  Result<geo::Polyline> Impute(const geo::LatLng& gap_start,
                               const geo::LatLng& gap_end,
                               graph::SearchScratch* scratch = nullptr) const;

  const GtiConfig& config() const { return config_; }
  size_t num_nodes() const { return points_.size(); }
  /// Undirected edge count (each stored as two directed CSR entries).
  size_t num_edges() const { return graph_.num_edges() / 2; }

  /// In-memory model footprint in bytes: point store + CSR graph + KD-tree.
  size_t SizeBytes() const;

  /// Persisted-model footprint in bytes: one row per point (lat, lng) and
  /// one per directed adjacency entry (neighbor index + length). Matches
  /// the Table 2 "storage size" semantics.
  size_t SerializedSizeBytes() const;

 private:
  GtiModel() = default;

  GtiConfig config_;
  std::vector<geo::LatLng> points_;
  /// Frozen point graph (node id == point index, weight == meters); no
  /// attribute columns.
  graph::CompactGraph graph_;
  graph::KdTree kdtree_;
};

}  // namespace habit::baselines
