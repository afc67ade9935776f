// The one search engine behind every shortest-path query in the system
// (graph::Dijkstra / graph::AStar, HABIT's Imputer, the GTI baseline).
//
// State is flat and index-keyed: distance / parent / stamp vectors sized to
// the frozen graph, plus the buffers of one priority queue. Visited and
// settled marks are generation stamps, so reusing one SearchScratch across
// a batch of queries costs a single counter increment instead of clearing
// or rehashing anything. The heuristic is a template parameter, so the
// per-edge std::function indirection of the old search layer is gone — a
// zero heuristic compiles down to plain Dijkstra.
//
// The queue is an exact bucket queue after Dial (CACM Algorithm 360,
// 1969): a ring of priority bands one smallest-edge-weight wide, so a
// Dijkstra relaxation lands a few bands ahead of the band being read, plus
// an overflow binary heap for everything else (see BandQueue). Its pops are
// exactly the pops of a binary heap ordered by (priority, node), so every
// search settles the same nodes in the same order as a heap-driven one.
#pragma once

#include <algorithm>
#include <cmath>
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
  /// The bucket queue's ring of priority bands (BandQueue); grown to the
  /// largest ring any graph searched with this scratch has needed, and
  /// each band keeps its capacity across queries.
  std::vector<std::vector<HeapEntry>> buckets;
  /// The bucket queue's overflow binary heap.
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
    for (std::vector<HeapEntry>& band : buckets) band.clear();
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

namespace internal {

/// The one order every queue entry pops in: ascending (priority, node).
inline bool EntryLess(const SearchScratch::HeapEntry& a,
                      const SearchScratch::HeapEntry& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.node < b.node;
}

/// \brief The search's priority queue: an exact bucket queue whose pops are
/// exactly those of a binary heap ordered by (priority, node).
///
/// Layout. Priorities fall into bands of width w: an entry's band is
/// floor(priority * (1/w)) minus the band of the first seed. w is the
/// graph's smallest edge weight, and the ring has nb bands, the smallest
/// power of two in [4, 64] with (nb - 2) * w >= the largest edge weight,
/// so a zero-heuristic relaxation from the band being read lands inside
/// the ring. When 64 bands are too few, w widens to max_w / 62; a w that
/// is not positive and finite falls back to 1. Band `cur` is the current
/// one: sorted by (priority, node) once, when it became current, and read
/// from its head. Bands cur + 1 .. cur + nb - 1 sit unsorted in ring slot
/// band mod nb. Everything else goes to the overflow binary heap:
///   - every seed (seeds spread over a snap radius, not over one weight);
///   - a push into band cur or earlier (rounding, a zero weight, or an
///     inconsistent heuristic such as the ALT probe's doubled bound);
///   - a push past the ring.
///
/// Why the pops are exact. The band is monotone in priority under IEEE
/// rounding (a product with a positive constant, floor, and the difference
/// with a constant all are), so every entry of a later band has a larger
/// priority than every entry of an earlier one. While the current band
/// has entries, the global minimum is therefore its head or the overflow
/// top, and Pop takes the smaller. Once it is exhausted, the overflow top
/// is popped while its band is cur or earlier; otherwise the next band
/// becomes current, or, when the ring is empty, cur jumps to the overflow
/// top's band. No step depends on the order of earlier pushes, so every
/// pop is the global (priority, node) minimum for any push sequence, any
/// non-negative weights and any heuristic.
///
/// The band sort and the heap need a strict weak order, so no priority may
/// be NaN. Weights are finite and non-negative (the snapshot loaders refuse
/// anything else), seed costs are finite, and heuristics return finite
/// values or +inf; an infinite priority always goes to the overflow heap.
class BandQueue {
 public:
  using Entry = SearchScratch::HeapEntry;

  BandQueue(const CompactGraph& g, SearchScratch& scratch)
      : bands_(scratch.buckets), heap_(scratch.heap) {
    const auto usable = [](double w) { return w > 0.0 && std::isfinite(w); };
    const WeightRange& weights = g.weight_range();
    double width = usable(weights.min) ? weights.min : 1.0;
    uint32_t count = kMinBands;
    while (count < kMaxBands && (count - 2) * width < weights.max) count *= 2;
    if ((count - 2) * width < weights.max) {
      width = weights.max / (kMaxBands - 2);
      if (!usable(width)) width = 1.0;
    }
    inv_width_ = 1.0 / width;
    count_ = count;
    mask_ = count - 1;
    if (bands_.size() < count) bands_.resize(count);
    current_ = &bands_[0];
  }

  /// A seed always goes to the overflow heap; the first one fixes band 0.
  void PushSeed(double priority, NodeIndex node) {
    if (heap_.empty() && std::isfinite(priority)) {
      base_ = std::floor(priority * inv_width_);
    }
    PushOverflow(priority, node);
  }

  void Push(double priority, NodeIndex node) {
    const double ahead = BandOf(priority) - static_cast<double>(cur_);
    if (ahead >= 1.0 && ahead < count_) {
      bands_[(cur_ + static_cast<int64_t>(ahead)) & mask_].push_back(
          {priority, node});
      ++pending_;
    } else {
      PushOverflow(priority, node);
    }
  }

  /// Pops the (priority, node)-smallest entry into `node`; false when the
  /// queue is empty.
  bool Pop(NodeIndex* node) {
    for (;;) {
      if (head_ < current_->size()) {
        const Entry& head = (*current_)[head_];
        if (!heap_.empty() && EntryLess(heap_.front(), head)) {
          return PopOverflow(node);
        }
        *node = head.node;
        ++head_;
        return true;
      }
      if (pending_ == 0) {
        // The ring is empty, so every entry is in the overflow heap and
        // any band can become current: take the top's, so the pushes that
        // follow land in the ring. A band too large for exact integer
        // steps stays out of the ring.
        if (heap_.empty()) return false;
        const double top = BandOf(heap_.front().priority);
        if (std::abs(top) < kMaxBand) {
          current_->clear();
          head_ = 0;
          cur_ = static_cast<int64_t>(top);
          current_ = &bands_[cur_ & mask_];
        }
        return PopOverflow(node);
      }
      if (!heap_.empty() && BandOf(heap_.front().priority) <= cur_) {
        return PopOverflow(node);
      }
      current_->clear();
      head_ = 0;
      ++cur_;
      current_ = &bands_[cur_ & mask_];
      pending_ -= current_->size();
      std::sort(current_->begin(), current_->end(), EntryLess);
    }
  }

 private:
  static constexpr uint32_t kMinBands = 4;
  static constexpr uint32_t kMaxBands = 64;
  /// Bands are integers held in doubles; below 2^52 they step exactly.
  static constexpr double kMaxBand = 4503599627370496.0;

  static bool HeapGreater(const Entry& a, const Entry& b) {
    return EntryLess(b, a);
  }
  double BandOf(double priority) const {
    return std::floor(priority * inv_width_) - base_;
  }
  void PushOverflow(double priority, NodeIndex node) {
    heap_.push_back({priority, node});
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater);
  }
  bool PopOverflow(NodeIndex* node) {
    *node = heap_.front().node;
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater);
    heap_.pop_back();
    return true;
  }

  std::vector<std::vector<Entry>>& bands_;
  std::vector<Entry>& heap_;
  double inv_width_ = 1.0;
  double base_ = 0.0;
  uint32_t count_ = kMinBands;
  int64_t mask_ = kMinBands - 1;
  int64_t cur_ = 0;                 ///< the current band
  std::vector<Entry>* current_;     ///< its ring slot
  size_t head_ = 0;                 ///< next unread entry of the current band
  size_t pending_ = 0;              ///< entries in the ring's later bands
};

}  // namespace internal

/// \brief Runs best-first search over the frozen graph, with a record-time
/// prune hook.
///
/// Identical to RunSearch except that a candidate entry (a seed, or an
/// improving edge relaxation reaching `u` at distance `du`) is discarded —
/// never recorded, never pushed, never settled — when `prune(u, du)`
/// returns true, as if the node did not exist at that distance. Pruning at
/// record time rather than pop time means rejected nodes cost one
/// predicate call instead of a full queue push/pop cycle.
///
/// For a prune predicate monotone in `du` (true for the ALT corridor test,
/// `du + bound(u) > limit`), this is output-equivalent to filtering pops:
/// the relaxation that establishes a surviving node's final distance has
/// the smallest `du` seen for that node, hence always passes, and with it
/// every (priority, node) queue entry that determines the settle sequence.
/// The ALT replay phase (graph/landmarks.h) uses this to restrict the
/// baseline search to the corridor that can contain an optimal path;
/// everything else should call RunSearch.
///
/// Entries pop in ascending (priority, node) order: equal priorities pop in
/// ascending node order. This makes the settle sequence a function of the
/// entry set alone (not of queue operation history), which is what lets a
/// pruned replay reproduce the unpruned search's parent choices exactly.
/// The queue is internal::BandQueue, a ring of priority bands plus an
/// overflow heap whose every pop equals a (priority, node) binary heap's;
/// no priority may be NaN (see there).
template <typename IsTargetFn, typename HeuristicFn, typename PruneFn>
CsrSearch RunSearchPruned(const CompactGraph& g,
                          std::span<const SearchSeed> seeds,
                          IsTargetFn&& is_target, HeuristicFn&& h,
                          PruneFn&& prune, SearchScratch& scratch) {
  scratch.Prepare(g.num_nodes());
  internal::BandQueue queue(g, scratch);

  for (const SearchSeed& seed : seeds) {
    if (seed.node == kInvalidNodeIndex) continue;
    if (!scratch.Visited(seed.node) || seed.cost < scratch.dist[seed.node]) {
      if (prune(seed.node, seed.cost)) continue;
      scratch.MarkVisited(seed.node);
      scratch.dist[seed.node] = seed.cost;
      scratch.parent[seed.node] = kInvalidNodeIndex;
      queue.PushSeed(seed.cost + h(seed.node), seed.node);
    }
  }

  CsrSearch result;
  NodeIndex u;
  while (queue.Pop(&u)) {
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
        queue.Push(cand + h(v), v);
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
