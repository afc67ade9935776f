// Frozen, read-optimized graph core. A Digraph is the mutable build-time
// representation (hash-map adjacency, cheap inserts); Digraph::Freeze()
// produces a CompactGraph — an immutable CSR layout with dense uint32 node
// indices, contiguous out-edge spans, structure-of-arrays attributes, a
// bucketed id->index lookup, and a precomputed in-degree array. Every query
// in the system (HABIT imputation, GTI, components, benches) runs against
// the frozen form; only construction and serialization-loading touch
// Digraph.
//
// Storage backend: every flat array is a std::span<const T> view over one
// of two backings —
//   owned   vectors filled by Freeze() or the copying snapshot loader
//           (graph/snapshot.h), heap-resident;
//   mapped  a single MmapRegion holding a snapshot whose arrays are
//           64-byte aligned on disk, so the graph serves directly from the
//           kernel page cache with zero copies (LoadGraphSnapshotMapped).
// Both backings are immutable and held by shared_ptr, so copying a
// CompactGraph is cheap (views + refcounts) and views never dangle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/status.h"
#include "geo/latlng.h"

namespace habit::graph {

class SnapshotWriter;
class SnapshotReader;
class MmapRegion;

using NodeId = uint64_t;

/// Dense position of a node inside a CompactGraph. Indices are assigned in
/// ascending NodeId order, so IdOf is an array read and IndexOf one bucket
/// probe.
using NodeIndex = uint32_t;

/// Sentinel for "no such node" (also the null parent in search state).
inline constexpr NodeIndex kInvalidNodeIndex = UINT32_MAX;

/// \brief Attributes HABIT stores on nodes (Section 3.2 of the paper).
struct NodeAttrs {
  geo::LatLng median_pos;   ///< median longitude/latitude of cell reports
  geo::LatLng center_pos;   ///< geometric center (H3 cell center)
  int64_t message_count = 0;  ///< total AIS messages in the cell
  int64_t distinct_vessels = 0;  ///< approx distinct vessels in the cell
  double median_sog = 0.0;  ///< median speed over ground, knots
  double median_cog = 0.0;  ///< median course over ground, degrees
};

/// \brief Attributes on edges: transition statistics between cells.
struct EdgeAttrs {
  double weight = 1.0;     ///< traversal cost used by shortest-path search
  int64_t transitions = 0;  ///< approx distinct trips making this transition
  int64_t grid_distance = 0;  ///< hex grid distance between the two cells
};

/// Upper bound on landmarks per graph. Columns cost 16 bytes/node each, so
/// this caps the precomputation at ~1KB/node — and bounds what a snapshot
/// reader will accept as a plausible landmark section.
inline constexpr size_t kMaxLandmarks = 64;

/// \brief ALT landmark distances for a frozen graph (graph/landmarks.h
/// computes them; the snapshot v3 container persists them).
///
/// Node-major layout: `from[u * k + l]` is the shortest-path cost from
/// landmark `l` to node `u`, `to[u * k + l]` the cost from `u` to landmark
/// `l` (+infinity when unreachable). One query-time bound evaluation reads
/// the 2k doubles of one node contiguously.
struct LandmarkSet {
  std::vector<NodeIndex> nodes;  ///< landmark node indices, k entries
  std::vector<double> from;      ///< k * num_nodes, node-major
  std::vector<double> to;        ///< k * num_nodes, node-major
};

/// Structural validation of landmark columns against a graph of
/// `num_nodes` nodes: k within [0, kMaxLandmarks], landmark indices
/// in-range and strictly ascending-free (distinct), column sizes k * n,
/// every distance finite-or-+inf and non-negative. Shared by
/// CompactGraph::AttachLandmarks and the snapshot loaders (a mapped load
/// skips the checksum, so this is its only line of defense against a
/// garbage landmark section).
Status ValidateLandmarks(size_t num_nodes, std::span<const NodeIndex> nodes,
                         std::span<const double> from,
                         std::span<const double> to);

/// \brief Immutable CSR snapshot of a Digraph.
///
/// Storage: nodes are the sorted distinct NodeIds; out-edges of node i live
/// in the half-open range [row_offsets_[i], row_offsets_[i+1]) of the edge
/// arrays. Attributes are structure-of-arrays so a search touches only the
/// target + weight streams and the statistics arrays stay cold. Freezing
/// without attributes (Digraph::Freeze(false)) drops the statistics arrays
/// for graphs that only need topology + weights (the GTI point graph).
class CompactGraph {
 public:
  CompactGraph() = default;

  /// Copies share the immutable backing (views + refcounts, no array
  /// copy). Moves must not leave the source half-alive: the default move
  /// would null the backing pointers but keep the span views and the
  /// lookup parameters (spans are trivially copyable), so IndexOf on a
  /// moved-from graph would dereference a null bucket array. Share, then
  /// clear the source — a moved-from graph is an empty graph.
  CompactGraph(const CompactGraph&) = default;
  CompactGraph& operator=(const CompactGraph&) = default;
  CompactGraph(CompactGraph&& other) noexcept : CompactGraph(other) {
    other.Clear();
  }
  CompactGraph& operator=(CompactGraph&& other) noexcept {
    if (this != &other) {
      *this = other;  // copy-assign: share the backing
      other.Clear();
    }
    return *this;
  }

  size_t num_nodes() const { return node_ids_.size(); }
  size_t num_edges() const { return edge_dst_.size(); }

  /// True when the CSR arrays are views into a mapped snapshot instead of
  /// heap vectors (zero-copy serving).
  bool is_mapped() const { return mapped_ != nullptr; }

  /// Dense index of `id`, or kInvalidNodeIndex when absent.
  ///
  /// Two-level lookup instead of a full binary search: ids bucket by
  /// linear interpolation over the id range (monotonic, so each bucket is
  /// a contiguous slice of the sorted id array), and short buckets resolve
  /// with a branch-predictable linear scan. This is the imputer's
  /// per-snap-candidate hot path.
  NodeIndex IndexOf(NodeId id) const {
    if (node_ids_.empty()) return kInvalidNodeIndex;
    const NodeId lo = node_ids_.front();
    if (id < lo || id > node_ids_.back()) return kInvalidNodeIndex;
    const auto& buckets = *id_buckets_;
    const size_t b = BucketOf(id, lo);
    const uint32_t end = buckets[b + 1];
    // Buckets average ~1 entry; degenerate (skewed-distribution) buckets
    // fall back to bisection so the worst case stays logarithmic.
    uint32_t i = buckets[b];
    if (end - i > 32) return BisectBucket(id, i, end);
    for (; i < end; ++i) {
      if (node_ids_[i] >= id) {
        return node_ids_[i] == id ? i : kInvalidNodeIndex;
      }
    }
    return kInvalidNodeIndex;
  }
  bool HasNode(NodeId id) const { return IndexOf(id) != kInvalidNodeIndex; }
  NodeId IdOf(NodeIndex i) const { return node_ids_[i]; }

  /// Out-edge targets / traversal costs of node `u`, index-aligned.
  std::span<const NodeIndex> OutNeighbors(NodeIndex u) const {
    return edge_dst_.subspan(row_offsets_[u],
                             row_offsets_[u + 1] - row_offsets_[u]);
  }
  std::span<const double> OutWeights(NodeIndex u) const {
    return edge_weight_.subspan(row_offsets_[u],
                                row_offsets_[u + 1] - row_offsets_[u]);
  }

  uint32_t OutDegree(NodeIndex u) const {
    return row_offsets_[u + 1] - row_offsets_[u];
  }
  /// Precomputed at freeze time (subsumes the per-imputer in-degree map).
  uint32_t InDegree(NodeIndex u) const { return in_degree_[u]; }

  /// Node attribute columns (empty when frozen without attributes).
  const geo::LatLng& MedianPos(NodeIndex u) const { return median_pos_[u]; }
  const geo::LatLng& CenterPos(NodeIndex u) const { return center_pos_[u]; }
  int64_t MessageCount(NodeIndex u) const { return message_count_[u]; }
  bool has_attrs() const { return !median_pos_.empty(); }

  /// Number of ALT landmarks attached (0 for graphs without
  /// precomputation — searches then run on the zero heuristic).
  size_t num_landmarks() const { return landmark_nodes_.size(); }
  std::span<const NodeIndex> landmark_nodes() const {
    return landmark_nodes_;
  }
  /// Distance columns of node `u`: entry l is the cost from landmark l to
  /// u (LandmarkFrom) / from u to landmark l (LandmarkTo), +inf when
  /// unreachable. Contiguous per node (node-major storage).
  std::span<const double> LandmarkFrom(NodeIndex u) const {
    const size_t k = num_landmarks();
    return landmark_from_.subspan(static_cast<size_t>(u) * k, k);
  }
  std::span<const double> LandmarkTo(NodeIndex u) const {
    const size_t k = num_landmarks();
    return landmark_to_.subspan(static_cast<size_t>(u) * k, k);
  }

  /// Attaches freeze-time ALT precomputation (graph/landmarks.h) to this
  /// graph; validated, and serialized with the graph from then on.
  /// Replaces any landmarks already attached.
  Status AttachLandmarks(LandmarkSet set);

  /// Assembled attribute views (row form), for serialization and tests.
  NodeAttrs NodeAttrsAt(NodeIndex u) const;
  EdgeAttrs EdgeAttrsAt(size_t edge_pos) const;

  Result<NodeAttrs> GetNode(NodeId id) const;
  Result<EdgeAttrs> GetEdge(NodeId u, NodeId v) const;

  /// Applies `fn(NodeId, const NodeAttrs&)` to every node in ascending id
  /// order. Templated (not std::function) so hot loops inline the visitor.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    for (NodeIndex i = 0; i < num_nodes(); ++i) {
      fn(node_ids_[i], NodeAttrsAt(i));
    }
  }

  /// Applies `fn(NodeId src, NodeId dst, const EdgeAttrs&)` to every
  /// directed edge, grouped by source node.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (NodeIndex u = 0; u < num_nodes(); ++u) {
      for (uint32_t e = row_offsets_[u]; e < row_offsets_[u + 1]; ++e) {
        fn(node_ids_[u], node_ids_[edge_dst_[e]], EdgeAttrsAt(e));
      }
    }
  }

  /// Model footprint in bytes: the sum of the flat CSR arrays plus the
  /// id-lookup buckets. Identical for the owned and mapped backings (the
  /// mapped arrays are resident in the page cache rather than the heap,
  /// but they are what the model keeps warm — and what a byte-budgeted
  /// model cache must account for).
  size_t SizeBytes() const;

  /// Size of the persisted model in bytes: one row per node
  /// (id, median lon/lat, counts, medians) and one per edge
  /// (src, dst, transitions). This is what Table 2 of the paper reports as
  /// "framework storage size" (identical to Digraph::SerializedSizeBytes).
  size_t SerializedSizeBytes() const {
    return num_nodes() * 40 + num_edges() * 20;
  }

 private:
  friend class Digraph;  // Freeze() fills an Arrays block directly
  // Binary snapshot I/O (graph/snapshot.h) dumps the column views and
  // restores either owned arrays (copy load) or mapped views (mmap load),
  // bypassing the Digraph build path.
  friend void AppendGraphSection(SnapshotWriter& writer,
                                 const CompactGraph& g);
  friend Result<CompactGraph> ReadGraphSection(SnapshotReader& reader);

  /// Owned backing: the flat arrays built by Freeze() or the copying
  /// snapshot loader.
  struct Arrays {
    std::vector<NodeId> node_ids;        ///< sorted; index -> id
    std::vector<uint32_t> row_offsets;   ///< num_nodes + 1
    std::vector<NodeIndex> edge_dst;     ///< CSR edge targets
    std::vector<double> edge_weight;     ///< traversal costs, edge-aligned
    std::vector<uint32_t> in_degree;     ///< per node

    // Optional statistics columns (attrs freeze only), edge/node-aligned.
    std::vector<int64_t> edge_transitions;
    std::vector<int64_t> edge_grid_distance;
    std::vector<geo::LatLng> median_pos;
    std::vector<geo::LatLng> center_pos;
    std::vector<int64_t> message_count;
    std::vector<int64_t> distinct_vessels;
    std::vector<double> median_sog;
    std::vector<double> median_cog;
  };

  /// Adopts owned arrays: views point into `arrays`, which is shared so
  /// copies of the graph alias one backing.
  static CompactGraph FromOwned(Arrays arrays);

  /// Binds views into `region` (set by the mapped snapshot loader, which
  /// validated alignment and bounds). The region is shared so views stay
  /// valid for the graph's whole lifetime.
  void AdoptMapped(std::shared_ptr<const MmapRegion> region) {
    mapped_ = std::move(region);
    BuildIdLookup();
  }

  /// Builds the interpolation-bucket index over node_ids_.
  void BuildIdLookup();

  /// Returns to the default-constructed (empty) state.
  void Clear() {
    owned_.reset();
    mapped_.reset();
    landmarks_owned_.reset();
    landmark_nodes_ = {};
    landmark_from_ = {};
    landmark_to_ = {};
    id_buckets_.reset();
    id_bucket_count_ = 0;
    id_range_ = 0;
    node_ids_ = {};
    row_offsets_ = {};
    edge_dst_ = {};
    edge_weight_ = {};
    in_degree_ = {};
    edge_transitions_ = {};
    edge_grid_distance_ = {};
    median_pos_ = {};
    center_pos_ = {};
    message_count_ = {};
    distinct_vessels_ = {};
    median_sog_ = {};
    median_cog_ = {};
  }

  size_t BucketOf(NodeId id, NodeId lo) const {
    // Monotonic map of the id range onto [0, num_buckets): equal scaling
    // for every id, 128-bit so the widest id spans cannot overflow.
    const unsigned __int128 offset = id - lo;
    return static_cast<size_t>((offset * id_bucket_count_) /
                               (id_range_ + 1));
  }
  NodeIndex BisectBucket(NodeId id, uint32_t lo, uint32_t hi) const;

  std::shared_ptr<const Arrays> owned_;
  std::shared_ptr<const MmapRegion> mapped_;
  /// Backing for landmark columns attached in-process or copy-loaded (a
  /// mapped snapshot serves them through mapped_ instead).
  std::shared_ptr<const LandmarkSet> landmarks_owned_;
  /// id -> bucket start positions (size id_bucket_count_ + 1), built at
  /// freeze/load time; always owned (it is derived, not persisted).
  std::shared_ptr<const std::vector<uint32_t>> id_buckets_;
  uint64_t id_bucket_count_ = 0;
  unsigned __int128 id_range_ = 0;  ///< node_ids_.back() - node_ids_.front()

  // The column views every accessor reads through; they alias owned_ or
  // mapped_ (or are empty on a default-constructed graph).
  std::span<const NodeId> node_ids_;
  std::span<const uint32_t> row_offsets_;
  std::span<const NodeIndex> edge_dst_;
  std::span<const double> edge_weight_;
  std::span<const uint32_t> in_degree_;
  std::span<const int64_t> edge_transitions_;
  std::span<const int64_t> edge_grid_distance_;
  std::span<const geo::LatLng> median_pos_;
  std::span<const geo::LatLng> center_pos_;
  std::span<const int64_t> message_count_;
  std::span<const int64_t> distinct_vessels_;
  std::span<const double> median_sog_;
  std::span<const double> median_cog_;
  std::span<const NodeIndex> landmark_nodes_;
  std::span<const double> landmark_from_;  ///< node-major, k per node
  std::span<const double> landmark_to_;    ///< node-major, k per node
};

}  // namespace habit::graph
