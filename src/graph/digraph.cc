#include "graph/digraph.h"

#include <algorithm>

namespace habit::graph {

bool Digraph::AddNode(NodeId id, NodeAttrs attrs) {
  return nodes_.try_emplace(id, Node{attrs, {}}).second;
}

void Digraph::AddEdge(NodeId u, NodeId v, EdgeAttrs attrs) {
  nodes_.try_emplace(v);
  auto& out = nodes_[u].out;
  for (auto& [nbr, existing] : out) {
    if (nbr == v) {
      existing = attrs;
      return;
    }
  }
  out.emplace_back(v, attrs);
  ++num_edges_;
}

bool Digraph::HasEdge(NodeId u, NodeId v) const {
  return GetEdge(u, v).ok();
}

Result<NodeAttrs> Digraph::GetNode(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node " + std::to_string(id) + " not in graph");
  }
  return it->second.attrs;
}

Result<EdgeAttrs> Digraph::GetEdge(NodeId u, NodeId v) const {
  for (const auto& [nbr, attrs] : OutEdges(u)) {
    if (nbr == v) return attrs;
  }
  return Status::NotFound("edge not in graph");
}

Status Digraph::SetNodeAttrs(NodeId id, const NodeAttrs& attrs) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node " + std::to_string(id) + " not in graph");
  }
  it->second.attrs = attrs;
  return Status::OK();
}

const std::vector<std::pair<NodeId, EdgeAttrs>>& Digraph::OutEdges(
    NodeId u) const {
  static const std::vector<std::pair<NodeId, EdgeAttrs>> empty;
  auto it = nodes_.find(u);
  return it == nodes_.end() ? empty : it->second.out;
}

CompactGraph Digraph::Freeze(bool keep_attrs) const {
  CompactGraph::Arrays a;
  a.node_ids.reserve(nodes_.size());
  for (const auto& [id, attrs] : nodes_) a.node_ids.push_back(id);
  std::sort(a.node_ids.begin(), a.node_ids.end());

  const size_t n = a.node_ids.size();
  // The arrays are still being filled, so resolve ids locally (the graph's
  // bucketed IndexOf only exists after adoption).
  auto index_of = [&a](NodeId id) {
    return static_cast<NodeIndex>(
        std::lower_bound(a.node_ids.begin(), a.node_ids.end(), id) -
        a.node_ids.begin());
  };
  a.row_offsets.assign(n + 1, 0);
  a.in_degree.assign(n, 0);

  // Pass 1: out-degrees -> prefix sums.
  std::vector<const Node*> node_of(n);
  for (NodeIndex u = 0; u < n; ++u) {
    node_of[u] = &nodes_.find(a.node_ids[u])->second;
    a.row_offsets[u + 1] =
        a.row_offsets[u] + static_cast<uint32_t>(node_of[u]->out.size());
  }

  // Pass 2: fill edge rows, then sort each row by target index so lookups
  // can bisect and scans run in index order.
  const size_t m = a.row_offsets[n];
  a.edge_dst.resize(m);
  a.edge_weight.resize(m);
  if (keep_attrs) {
    a.edge_transitions.resize(m);
    a.edge_grid_distance.resize(m);
  }
  for (NodeIndex u = 0; u < n; ++u) {
    struct Out {
      NodeIndex dst;
      const EdgeAttrs* attrs;
    };
    std::vector<Out> row;
    row.reserve(node_of[u]->out.size());
    for (const auto& [v, attrs] : node_of[u]->out) {
      row.push_back({index_of(v), &attrs});
    }
    std::sort(row.begin(), row.end(),
              [](const Out& a, const Out& b) { return a.dst < b.dst; });
    uint32_t e = a.row_offsets[u];
    for (const Out& out : row) {
      a.edge_dst[e] = out.dst;
      a.edge_weight[e] = out.attrs->weight;
      if (keep_attrs) {
        a.edge_transitions[e] = out.attrs->transitions;
        a.edge_grid_distance[e] = out.attrs->grid_distance;
      }
      ++a.in_degree[out.dst];
      ++e;
    }
  }

  if (keep_attrs) {
    a.median_pos.resize(n);
    a.center_pos.resize(n);
    a.message_count.resize(n);
    a.distinct_vessels.resize(n);
    a.median_sog.resize(n);
    a.median_cog.resize(n);
    for (NodeIndex u = 0; u < n; ++u) {
      const NodeAttrs& attrs = node_of[u]->attrs;
      a.median_pos[u] = attrs.median_pos;
      a.center_pos[u] = attrs.center_pos;
      a.message_count[u] = attrs.message_count;
      a.distinct_vessels[u] = attrs.distinct_vessels;
      a.median_sog[u] = attrs.median_sog;
      a.median_cog[u] = attrs.median_cog;
    }
  }
  return CompactGraph::FromOwned(std::move(a));
}

size_t Digraph::SerializedSizeBytes() const {
  // Node row: cell id (8) + median lon/lat (16) + message count (4) +
  // distinct vessels (4) + median sog/cog (8) = 40 bytes.
  // Edge row: src (8) + dst (8) + transitions (4) = 20 bytes.
  return nodes_.size() * 40 + num_edges_ * 20;
}

size_t Digraph::SizeBytes() const {
  size_t bytes = nodes_.size() * (sizeof(NodeId) + sizeof(NodeAttrs) + 16);
  for (const auto& [u, node] : nodes_) {
    if (node.out.empty()) continue;
    bytes += sizeof(NodeId) + 24 +
             node.out.size() * (sizeof(NodeId) + sizeof(EdgeAttrs));
  }
  return bytes;
}

}  // namespace habit::graph
