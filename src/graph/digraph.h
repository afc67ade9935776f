// Weighted directed graph with per-node and per-edge attributes, standing in
// for NetworkX (see DESIGN.md). Node ids are opaque uint64 values — HABIT
// uses hexgrid CellIds, GTI uses point indices.
//
// Digraph is the *mutable build-time* representation: hash-map adjacency,
// cheap incremental inserts. Serving never queries it directly — call
// Freeze() to obtain the read-optimized graph::CompactGraph (CSR, dense
// indices) that the search engine runs on.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "geo/latlng.h"
#include "graph/compact_graph.h"

namespace habit::graph {

/// \brief Adjacency-list weighted digraph (build-time only).
class Digraph {
 public:
  /// Adds a node (no-op if present); returns whether it was inserted.
  bool AddNode(NodeId id, NodeAttrs attrs = {});

  /// Adds or replaces the directed edge u -> v.
  void AddEdge(NodeId u, NodeId v, EdgeAttrs attrs);

  bool HasNode(NodeId id) const { return nodes_.contains(id); }
  bool HasEdge(NodeId u, NodeId v) const;

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return num_edges_; }

  Result<NodeAttrs> GetNode(NodeId id) const;
  Result<EdgeAttrs> GetEdge(NodeId u, NodeId v) const;
  Status SetNodeAttrs(NodeId id, const NodeAttrs& attrs);

  /// Outgoing (neighbor, attrs) pairs of u; empty if u is absent.
  const std::vector<std::pair<NodeId, EdgeAttrs>>& OutEdges(NodeId u) const;

  /// Applies `fn(NodeId, const NodeAttrs&)` to every node. Templated (not
  /// std::function) so the visitor inlines; iteration order is the hash
  /// map's, i.e. unspecified.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    for (const auto& [id, node] : nodes_) fn(id, node.attrs);
  }

  /// Applies `fn(NodeId src, NodeId dst, const EdgeAttrs&)` to every
  /// directed edge.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (const auto& [u, node] : nodes_) {
      for (const auto& [v, attrs] : node.out) fn(u, v, attrs);
    }
  }

  /// \brief Snapshots the graph into the frozen CSR form.
  ///
  /// Nodes receive dense indices in ascending id order; each node's
  /// out-edges are sorted by target index. With `keep_attrs` false the
  /// statistics columns (transitions, grid distance, node medians) are
  /// dropped and only topology + weights survive — enough for pure
  /// shortest-path graphs like GTI's point graph.
  CompactGraph Freeze(bool keep_attrs = true) const;

  /// Approximate heap footprint in bytes.
  size_t SizeBytes() const;

  /// Size of the persisted model in bytes: one row per node
  /// (id, median lon/lat, counts, medians) and one per edge
  /// (src, dst, transitions). This is what Table 2 of the paper reports as
  /// "framework storage size".
  size_t SerializedSizeBytes() const;

 private:
  // One map entry per node holds its attributes and out-edges, so adding
  // an edge or freezing a node costs one lookup per endpoint.
  struct Node {
    NodeAttrs attrs;
    std::vector<std::pair<NodeId, EdgeAttrs>> out;
  };
  std::unordered_map<NodeId, Node> nodes_;
  size_t num_edges_ = 0;
};

}  // namespace habit::graph
