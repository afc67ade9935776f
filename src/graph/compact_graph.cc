#include "graph/compact_graph.h"

#include <algorithm>
#include <cmath>

#include "graph/mmap_region.h"

namespace habit::graph {

Status ValidateLandmarks(size_t num_nodes, std::span<const NodeIndex> nodes,
                         std::span<const double> from,
                         std::span<const double> to) {
  const size_t k = nodes.size();
  if (k > kMaxLandmarks) {
    return Status::IoError("landmark section: " + std::to_string(k) +
                           " landmarks exceeds the cap of " +
                           std::to_string(kMaxLandmarks));
  }
  if (from.size() != k * num_nodes || to.size() != k * num_nodes) {
    return Status::IoError(
        "landmark section: distance columns do not cover k * num_nodes");
  }
  for (size_t i = 0; i < k; ++i) {
    if (nodes[i] >= num_nodes) {
      return Status::IoError("landmark section: landmark node out of range");
    }
    for (size_t j = i + 1; j < k; ++j) {
      if (nodes[i] == nodes[j]) {
        return Status::IoError("landmark section: duplicate landmark node");
      }
    }
  }
  // Distances must be non-negative and never NaN (+inf = unreachable is
  // fine). A NaN would poison every bound computed from its column, and a
  // negative distance would make the "heuristic" inadmissible — on the
  // mapped load path this scan is the only thing standing between a
  // tampered section and silently wrong search corridors.
  for (const double d : from) {
    if (std::isnan(d) || d < 0.0) {
      return Status::IoError("landmark section: invalid distance value");
    }
  }
  for (const double d : to) {
    if (std::isnan(d) || d < 0.0) {
      return Status::IoError("landmark section: invalid distance value");
    }
  }
  return Status::OK();
}

Status CompactGraph::AttachLandmarks(LandmarkSet set) {
  HABIT_RETURN_NOT_OK(
      ValidateLandmarks(num_nodes(), set.nodes, set.from, set.to));
  auto owned = std::make_shared<const LandmarkSet>(std::move(set));
  landmark_nodes_ = owned->nodes;
  landmark_from_ = owned->from;
  landmark_to_ = owned->to;
  landmarks_owned_ = std::move(owned);
  return Status::OK();
}

NodeIndex CompactGraph::BisectIds(NodeId id) const {
  const auto it = std::lower_bound(node_ids_.begin(), node_ids_.end(), id);
  if (it == node_ids_.end() || *it != id) return kInvalidNodeIndex;
  return static_cast<NodeIndex>(it - node_ids_.begin());
}

void CompactGraph::BuildIdLookup() {
  id_table_.reset();
  id_slots_ = {};
  id_shift_ = 0;
  id_max_probe_ = 0;
  const size_t n = node_ids_.size();
  if (n == 0) return;
  // At most half full, so an absent id's probe run stays short: 4 bytes
  // per slot, 8-16 per node.
  int bits = 1;
  while ((size_t{1} << bits) < 2 * n) ++bits;
  auto table = std::make_shared<std::vector<NodeIndex>>(size_t{1} << bits,
                                                        kInvalidNodeIndex);
  const size_t mask = table->size() - 1;
  const int shift = 64 - bits;
  // Ids are distinct (Freeze emits a map's keys; the snapshot loaders'
  // ValidateGraphCols checked them strictly ascending), so each takes its
  // own slot: the first free one from its hash onward. Real cell ids sit
  // within ~30 slots of their hash even at millions of nodes. Ids crafted
  // to share a hash (a snapshot can hold any ascending ids) would make
  // this loop quadratic and every lookup linear, so past kMaxIdProbe the
  // graph keeps no table and IndexOf bisects the sorted ids instead.
  int max_probe = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t s = (node_ids_[i] * kIdHashMultiplier) >> shift;
    int probe = 0;
    for (; (*table)[s] != kInvalidNodeIndex; s = (s + 1) & mask) {
      if (++probe > kMaxIdProbe) return;
    }
    (*table)[s] = static_cast<NodeIndex>(i);
    max_probe = std::max(max_probe, probe);
  }
  id_shift_ = shift;
  id_max_probe_ = max_probe;
  id_slots_ = *table;
  id_table_ = std::move(table);
}

CompactGraph CompactGraph::FromOwned(Arrays arrays, WeightRange weights) {
  CompactGraph g;
  g.weight_range_ = weights;
  auto owned = std::make_shared<const Arrays>(std::move(arrays));
  g.node_ids_ = owned->node_ids;
  g.row_offsets_ = owned->row_offsets;
  g.edge_dst_ = owned->edge_dst;
  g.edge_weight_ = owned->edge_weight;
  g.in_degree_ = owned->in_degree;
  g.edge_transitions_ = owned->edge_transitions;
  g.edge_grid_distance_ = owned->edge_grid_distance;
  g.median_pos_ = owned->median_pos;
  g.center_pos_ = owned->center_pos;
  g.message_count_ = owned->message_count;
  g.distinct_vessels_ = owned->distinct_vessels;
  g.median_sog_ = owned->median_sog;
  g.median_cog_ = owned->median_cog;
  g.owned_ = std::move(owned);
  g.BuildIdLookup();
  return g;
}

NodeAttrs CompactGraph::NodeAttrsAt(NodeIndex u) const {
  NodeAttrs attrs;
  if (!has_attrs()) return attrs;
  attrs.median_pos = median_pos_[u];
  attrs.center_pos = center_pos_[u];
  attrs.message_count = message_count_[u];
  attrs.distinct_vessels = distinct_vessels_[u];
  attrs.median_sog = median_sog_[u];
  attrs.median_cog = median_cog_[u];
  return attrs;
}

EdgeAttrs CompactGraph::EdgeAttrsAt(size_t edge_pos) const {
  EdgeAttrs attrs;
  attrs.weight = edge_weight_[edge_pos];
  if (!edge_transitions_.empty()) {
    attrs.transitions = edge_transitions_[edge_pos];
    attrs.grid_distance = edge_grid_distance_[edge_pos];
  }
  return attrs;
}

Result<NodeAttrs> CompactGraph::GetNode(NodeId id) const {
  const NodeIndex i = IndexOf(id);
  if (i == kInvalidNodeIndex) {
    return Status::NotFound("node " + std::to_string(id) + " not in graph");
  }
  return NodeAttrsAt(i);
}

Result<EdgeAttrs> CompactGraph::GetEdge(NodeId u, NodeId v) const {
  const NodeIndex ui = IndexOf(u);
  const NodeIndex vi = IndexOf(v);
  if (ui != kInvalidNodeIndex && vi != kInvalidNodeIndex) {
    // Rows are sorted by target index at freeze time.
    const auto row = OutNeighbors(ui);
    const auto it = std::lower_bound(row.begin(), row.end(), vi);
    if (it != row.end() && *it == vi) {
      return EdgeAttrsAt(row_offsets_[ui] + (it - row.begin()));
    }
  }
  return Status::NotFound("edge not in graph");
}

size_t CompactGraph::SizeBytes() const {
  auto bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::element_type);
  };
  return bytes(node_ids_) + bytes(row_offsets_) + bytes(edge_dst_) +
         bytes(edge_weight_) + bytes(in_degree_) + bytes(edge_transitions_) +
         bytes(edge_grid_distance_) + bytes(median_pos_) + bytes(center_pos_) +
         bytes(message_count_) + bytes(distinct_vessels_) +
         bytes(median_sog_) + bytes(median_cog_) + bytes(landmark_nodes_) +
         bytes(landmark_from_) + bytes(landmark_to_) + bytes(id_slots_);
}

}  // namespace habit::graph
