// The one search engine behind every shortest-path query in the system
// (graph::Dijkstra / graph::AStar, HABIT's Imputer, the GTI baseline).
//
// State is flat and index-keyed: distance / parent / stamp vectors sized to
// the frozen graph, plus a binary heap buffer. Visited and settled marks
// are generation stamps, so reusing one SearchScratch across a batch of
// queries costs a single counter increment instead of clearing or
// rehashing anything. The heuristic is a template parameter, so the
// per-edge std::function indirection of the old search layer is gone — a
// zero heuristic compiles down to plain Dijkstra.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/compact_graph.h"

namespace habit::graph {

/// \brief Reusable flat working state for CSR searches.
///
/// Owned by the caller, valid for any number of queries against graphs of
/// any size (Prepare re-sizes on demand). One scratch serves one thread.
struct SearchScratch {
  struct HeapEntry {
    double priority;
    NodeIndex node;
  };
  std::vector<HeapEntry> heap;
  std::vector<double> dist;        ///< valid iff visit_stamp matches
  std::vector<NodeIndex> parent;   ///< kInvalidNodeIndex for seed nodes
  std::vector<uint32_t> visit_stamp;
  std::vector<uint32_t> settle_stamp;
  uint32_t generation = 0;
  /// The query's target set, stamped like the search marks but with its
  /// own generation: a caller marks the targets once (PrepareTargets, then
  /// MarkTarget), and every search of the query — an ALT run makes up to
  /// three — tests a settled node with one load (IsTarget). Prepare does
  /// not touch it.
  std::vector<uint32_t> target_stamp;
  uint32_t target_generation = 0;

  /// Per-query ALT state (graph/landmarks.h): the active landmark subset
  /// and its aggregated bounds toward this query's target set. Lives here
  /// so a batch of ALT queries allocates nothing in steady state; plain
  /// searches never touch it. Survives Prepare() — it is set up once per
  /// query and read by both phases of an ALT run.
  struct AltState {
    std::vector<uint32_t> active;  ///< landmark column indices in use
    std::vector<double> from_min;  ///< min over targets of dist(L -> t)
    std::vector<double> to_max;    ///< max over targets of dist(t -> L)
    /// Triangle *upper* bound on the query's optimal cost: the cheapest
    /// seed -> landmark -> target relay, min over all stored landmarks.
    /// +inf when no landmark connects the seed set to the target set.
    double upper = 0.0;
    /// True when `active` is the identity over all stored landmarks — the
    /// bound evaluation then scans the distance rows linearly (one cache
    /// line per direction at k = 8) instead of through the index vector.
    bool dense = false;
    /// Probe-to-replay bound memo: the weighted-A* probe and the pruned
    /// replay evaluate the SAME per-node lower bound (AltState is fixed
    /// for the whole query), so values the probe computed are stamped
    /// here and returned verbatim by the replay — output-invariant by
    /// construction, the replay just skips the landmark-row scans for
    /// every node the probe's frontier already touched. Generation-
    /// stamped like the search arrays: PrepareAltQuery bumps the
    /// generation once per query instead of clearing.
    std::vector<double> bound_cache;
    std::vector<uint32_t> bound_stamp;  ///< valid iff == bound_generation
    uint32_t bound_generation = 0;
  };
  AltState alt;

  /// Starts a new query over a graph of `num_nodes` nodes: bumps the
  /// generation (invalidating all stamps at once) and grows the arrays if
  /// this graph is larger than any seen before.
  void Prepare(size_t num_nodes) {
    if (visit_stamp.size() < num_nodes) {
      dist.resize(num_nodes);
      parent.resize(num_nodes);
      visit_stamp.resize(num_nodes, 0);
      settle_stamp.resize(num_nodes, 0);
    }
    if (generation == UINT32_MAX) {  // wraparound: hard-reset the stamps
      std::fill(visit_stamp.begin(), visit_stamp.end(), 0);
      std::fill(settle_stamp.begin(), settle_stamp.end(), 0);
      generation = 0;
    }
    ++generation;
    heap.clear();
  }

  /// Starts a new, empty target set over a graph of `num_nodes` nodes.
  void PrepareTargets(size_t num_nodes) {
    if (target_stamp.size() < num_nodes) target_stamp.resize(num_nodes, 0);
    if (target_generation == UINT32_MAX) {  // wraparound: hard reset
      std::fill(target_stamp.begin(), target_stamp.end(), 0);
      target_generation = 0;
    }
    ++target_generation;
  }
  void MarkTarget(NodeIndex u) { target_stamp[u] = target_generation; }
  bool IsTarget(NodeIndex u) const {
    return target_stamp[u] == target_generation;
  }

  bool Visited(NodeIndex u) const { return visit_stamp[u] == generation; }
  bool Settled(NodeIndex u) const { return settle_stamp[u] == generation; }
  void MarkVisited(NodeIndex u) { visit_stamp[u] = generation; }
  void MarkSettled(NodeIndex u) { settle_stamp[u] = generation; }
};

/// A search entry point: start node plus its seed cost (0 for classic
/// single-source; snap displacement for multi-source imputation).
struct SearchSeed {
  NodeIndex node = kInvalidNodeIndex;
  double cost = 0.0;
};

/// \brief Outcome of one engine run (index domain).
struct CsrSearch {
  bool found = false;
  NodeIndex reached = kInvalidNodeIndex;  ///< first settled target
  double cost = 0.0;
  size_t expanded = 0;  ///< settled nodes (search effort)
};

/// \brief Runs best-first search over the frozen graph, with a record-time
/// prune hook.
///
/// Identical to RunSearch except that a candidate entry (a seed, or an
/// improving edge relaxation reaching `u` at distance `du`) is discarded —
/// never recorded, never pushed, never settled — when `prune(u, du)`
/// returns true, as if the node did not exist at that distance. Pruning at
/// record time rather than pop time means rejected nodes cost one
/// predicate call instead of a full heap push/pop cycle.
///
/// For a prune predicate monotone in `du` (true for the ALT corridor test,
/// `du + bound(u) > limit`), this is output-equivalent to filtering pops:
/// the relaxation that establishes a surviving node's final distance has
/// the smallest `du` seen for that node, hence always passes, and with it
/// every (priority, node) heap entry that determines the settle sequence.
/// The ALT replay phase (graph/landmarks.h) uses this to restrict the
/// baseline search to the corridor that can contain an optimal path;
/// everything else should call RunSearch.
///
/// Equal-priority heap entries pop in ascending node order. This makes the
/// settle sequence a function of the entry set alone (not of heap
/// operation history), which is what lets a pruned replay reproduce the
/// unpruned search's parent choices exactly.
template <typename IsTargetFn, typename HeuristicFn, typename PruneFn>
CsrSearch RunSearchPruned(const CompactGraph& g,
                          std::span<const SearchSeed> seeds,
                          IsTargetFn&& is_target, HeuristicFn&& h,
                          PruneFn&& prune, SearchScratch& scratch) {
  scratch.Prepare(g.num_nodes());
  auto& heap = scratch.heap;
  const auto heap_greater = [](const SearchScratch::HeapEntry& a,
                               const SearchScratch::HeapEntry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.node > b.node;
  };
  auto heap_push = [&](double priority, NodeIndex node) {
    heap.push_back({priority, node});
    std::push_heap(heap.begin(), heap.end(), heap_greater);
  };

  for (const SearchSeed& seed : seeds) {
    if (seed.node == kInvalidNodeIndex) continue;
    if (!scratch.Visited(seed.node) || seed.cost < scratch.dist[seed.node]) {
      if (prune(seed.node, seed.cost)) continue;
      scratch.MarkVisited(seed.node);
      scratch.dist[seed.node] = seed.cost;
      scratch.parent[seed.node] = kInvalidNodeIndex;
      heap_push(seed.cost + h(seed.node), seed.node);
    }
  }

  CsrSearch result;
  while (!heap.empty()) {
    const NodeIndex u = heap.front().node;
    std::pop_heap(heap.begin(), heap.end(), heap_greater);
    heap.pop_back();
    if (scratch.Settled(u)) continue;
    scratch.MarkSettled(u);
    ++result.expanded;
    if (is_target(u)) {
      result.found = true;
      result.reached = u;
      result.cost = scratch.dist[u];
      return result;
    }
    const double du = scratch.dist[u];
    const auto neighbors = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t e = 0; e < neighbors.size(); ++e) {
      const NodeIndex v = neighbors[e];
      if (scratch.Settled(v)) continue;
      const double cand = du + weights[e];
      if (!scratch.Visited(v) || cand < scratch.dist[v]) {
        if (prune(v, cand)) continue;
        scratch.MarkVisited(v);
        scratch.dist[v] = cand;
        scratch.parent[v] = u;
        heap_push(cand + h(v), v);
      }
    }
  }
  return result;
}

/// \brief Runs best-first search over the frozen graph.
///
/// Seeds are relaxed like discovered nodes (the cheapest wins when a node
/// is seeded twice); the search stops when `is_target(u)` holds for a
/// settled node, or runs to exhaustion (single-source all-distances) when
/// it never does. `h(u)` must be admissible for optimal paths; pass a
/// lambda returning 0.0 for Dijkstra. After the call, `scratch` holds the
/// distance/parent state of this query (read via Visited/Settled + dist).
template <typename IsTargetFn, typename HeuristicFn>
CsrSearch RunSearch(const CompactGraph& g, std::span<const SearchSeed> seeds,
                    IsTargetFn&& is_target, HeuristicFn&& h,
                    SearchScratch& scratch) {
  return RunSearchPruned(g, seeds, is_target, h,
                         [](NodeIndex, double) { return false; }, scratch);
}

/// Walks the parent chain of `scratch` from `reached` back to its seed.
/// Returns the node indices in seed..reached order.
inline std::vector<NodeIndex> ReconstructPath(const SearchScratch& scratch,
                                              NodeIndex reached) {
  std::vector<NodeIndex> path;
  for (NodeIndex cur = reached; cur != kInvalidNodeIndex;
       cur = scratch.parent[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace habit::graph
