// ALT (A*, Landmarks, Triangle inequality) precomputation and the
// corridor query search built on it.
//
// Freeze/save time: ComputeLandmarks picks k landmarks by farthest-point
// sampling over the frozen graph and runs one full Dijkstra per landmark
// in each direction (backward via a reversed Digraph re-freeze, which
// preserves the dense index mapping because the node-id set is identical).
// The resulting distance columns attach to the CompactGraph and persist in
// the snapshot v3 landmark section — mmap-servable like every other
// column.
//
// Query time: the triangle inequality turns the stored distances into an
// admissible lower bound on the remaining cost to the query's target set,
//
//   dist(u, t) >= dist(L, t) - dist(L, u)   (from-column)
//   dist(u, t) >= dist(u, L) - dist(t, L)   (to-column)
//
// aggregated over targets once per query (PrepareAltQuery) so the bound is
// O(active landmarks) per node with no per-query allocation.
//
// Output equivalence: an A* guided by a different heuristic legitimately
// returns a *different equal-cost path* than the zero-heuristic baseline
// when ties exist — so a drop-in heuristic swap cannot promise
// byte-identical imputations. RunSearchAlt instead keeps the baseline
// search (zero heuristic, baseline settle order) and prunes it to a
// corridor proven to contain every optimal path:
//
//   1. An UPPER bound on the optimal cost C seeds the corridor: routing
//      through any landmark is a real path, so
//        U = min over (seed s, landmark L, target t) of
//              s.cost + dist(s, L) + dist(L, t)  >=  C,
//      computed in PrepareAltQuery from values it already reads. On real
//      lane graphs U alone is loose (landmarks sit on the periphery), so
//      a weighted-A* probe — the bound inflated by kProbeWeight, greedy
//      and unpruned — walks a real path in near-path-length expansions
//      and tightens the cap to min(U, probe cost), typically within a
//      few percent of C.
//   2. The replay then runs the baseline zero-heuristic search but
//      discards, at record time, every candidate entry with
//      dist(u) + bound(u) > cap + slack — out-of-corridor nodes never
//      even enter the queue.
//
// The pruned run reproduces the baseline's result exactly: every node on
// an optimal path satisfies dist(u) + bound(u) <= C <= cap, hence
// survives;
// surviving entries settle in the baseline's order because the settle
// sequence is a function of the (priority, node) entry set alone (the
// queue pops equal priorities by node index, see RunSearchPruned), and
// every entry that determines the baseline's returned parent chain is in
// the corridor. The slack term absorbs the ulp-level gap between the
// landmark columns' cost sums and the search's own left-to-right sums.
// And under honest columns the result is certifiably optimal, not just
// plausible: any path through a discarded node costs more than
// the cap >= the returned cost. Dishonest columns are a load-time concern —
// copy loads verify the payload checksum, mapped loads the landmark
// section's structure (ValidateLandmarks) — and a run that pruned itself
// into finding nothing falls back to the unpruned baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#ifdef HABIT_ALT_TRACE
#include <cstdio>
#endif
#include <limits>
#include <span>

#include "core/status.h"
#include "graph/compact_graph.h"
#include "graph/search.h"

namespace habit::graph {

/// Bound evaluation cost is k double-compares per node, paid on every
/// improving relaxation, so cap the per-query subset: PrepareAltQuery
/// keeps the landmarks that promise the most at the seed set. 8 active
/// columns measure as the sweet spot: on the bench graphs the strongest
/// 8 of 16 stored landmarks prune within ~0.5% as many nodes as all 16,
/// at half the bound-evaluation memory traffic — a dense 16 measures
/// ~10-20% slower end to end. When the graph stores at most this many
/// landmarks the subset is all of them, and the evaluation takes a dense
/// path: each direction's distance row is a single 64-byte cache line
/// (k = 8 doubles), scanned linearly with a branch-free max accumulation.
inline constexpr size_t kMaxActiveLandmarks = 8;

/// \brief Computes `k` landmarks (capped at num_nodes and kMaxLandmarks)
/// with their forward/backward distance columns. O(k) full Dijkstras per
/// direction — freeze/save-time work, amortized into the snapshot.
Result<LandmarkSet> ComputeLandmarks(const CompactGraph& g, size_t k);

/// \brief Fills `scratch.alt` for one query: aggregates each landmark's
/// bound ingredients over the target set and keeps the
/// kMaxActiveLandmarks-strongest columns (judged at the seed set). No-op
/// bounds (targets unreachable through a landmark) are dropped or
/// sentineled so the per-node evaluation never produces NaN.
void PrepareAltQuery(const CompactGraph& g,
                     std::span<const NodeIndex> targets,
                     std::span<const SearchSeed> seeds,
                     SearchScratch& scratch);

/// \brief The ALT lower bound on the cost from a node to the query's
/// target set, reading the state PrepareAltQuery left in the scratch.
/// Admissible and consistent for honest landmark data; 0 when no landmark
/// says anything (the zero-heuristic degradation). Evaluations memoize
/// into the scratch's generation-stamped bound cache, so the corridor
/// replay reuses the probe's frontier evaluations instead of re-scanning
/// the landmark rows (AltState is fixed per query — the memo cannot
/// change any value, only skip recomputing it).
class LandmarkHeuristic {
 public:
  LandmarkHeuristic(const CompactGraph& g, SearchScratch& scratch)
      : g_(&g), alt_(&scratch.alt) {}

  double operator()(NodeIndex u) const {
    SearchScratch::AltState& alt = *alt_;
    if (alt.bound_stamp[u] == alt.bound_generation) {
      return alt.bound_cache[u];
    }
    double best = 0.0;
    const std::span<const double> from_row = g_->LandmarkFrom(u);
    const std::span<const double> to_row = g_->LandmarkTo(u);
    const size_t m = alt.active.size();
    // Infinities never poison the result: from_min is -inf when no target
    // is reachable from landmark l (sentineled in PrepareAltQuery), making
    // the f-term -inf, and a vacuous to-bound yields -inf or NaN — both
    // rejected by the strict > comparison.
    if (alt.dense) {
      // active == identity over all stored landmarks: scan the rows
      // linearly, no index indirection. std::max keeps its first argument
      // on a NaN second argument, so the accumulation is branch-free and
      // the compiler can keep it in vector registers.
      for (size_t l = 0; l < m; ++l) {
        best = std::max(best, alt.from_min[l] - from_row[l]);
        best = std::max(best, to_row[l] - alt.to_max[l]);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        const uint32_t l = alt.active[i];
        const double f = alt.from_min[i] - from_row[l];
        if (f > best) best = f;
        const double t = to_row[l] - alt.to_max[i];
        if (t > best) best = t;
      }
    }
    alt.bound_cache[u] = best;
    alt.bound_stamp[u] = alt.bound_generation;
    return best;
  }

 private:
  const CompactGraph* g_;
  SearchScratch::AltState* alt_;
};

/// \brief The ALT corridor search: the baseline zero-heuristic search,
/// record-time-pruned to { u : dist(u) + bound(u) <= cap + slack } where
/// cap is the tighter of the landmark-relay upper bound and a weighted-A*
/// probe's real path cost (see the header comment). Returns exactly what
/// `RunSearch(g, seeds, is_target, zero, scratch)` returns — same target,
/// same parent chain, same cost — with `expanded` counting only the nodes
/// the corridor admitted. `targets` must hold the same node set
/// `is_target` accepts (it feeds the per-query bound aggregation).
/// Degrades to the plain baseline when the graph carries no landmarks or
/// no landmark relays the seed set to the target set.
template <typename IsTargetFn>
CsrSearch RunSearchAlt(const CompactGraph& g,
                       std::span<const SearchSeed> seeds,
                       IsTargetFn&& is_target,
                       std::span<const NodeIndex> targets,
                       SearchScratch& scratch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto zero = [](NodeIndex) { return 0.0; };
  if (g.num_landmarks() == 0 || targets.empty()) {
    return RunSearch(g, seeds, is_target, zero, scratch);
  }
  PrepareAltQuery(g, targets, seeds, scratch);
  if (scratch.alt.upper == kInf) {
    // No landmark relays seeds to targets: no corridor to prune to (and
    // likely no path at all) — run the plain baseline.
    return RunSearch(g, seeds, is_target, zero, scratch);
  }
  const LandmarkHeuristic bound(g, scratch);

  // The relative slack covers floating-point divergence between the
  // landmark columns' cost sums and the search's own sums along the same
  // edges.
  const auto with_slack = [](double x) {
    return x + 1e-9 * (std::abs(x) + 1.0);
  };

  // Phase 1 — probe: the landmark-relay upper bound alone is loose (the
  // chosen landmarks sit on the periphery, and routing through one detours
  // by 2-10x on real lane graphs), so tighten it with a weighted-A* probe:
  // the bound inflated by kProbeWeight makes the search greedily
  // goal-directed, tracing the lane toward the targets in near-path-length
  // expansions. Whatever it finds is a REAL path, so its cost is a valid
  // upper bound — typically within a few percent of optimal — regardless
  // of the inflation breaking admissibility. The probe runs unpruned:
  // clipping it to the relay corridor measurably backfires (the greedy
  // path strays outside and the probe degenerates into a corridor sweep).
  constexpr double kProbeWeight = 2.0;
  const CsrSearch probe = RunSearch(
      g, seeds, is_target,
      [&](NodeIndex u) { return kProbeWeight * bound(u); }, scratch);
  if (!probe.found) {
    // Honest columns + finite relay bound imply the targets are reachable,
    // so a failed probe means corrupt landmark data: fall back to the
    // authoritative unpruned baseline (correct, just not accelerated).
    return RunSearch(g, seeds, is_target, zero, scratch);
  }

  // Phase 2 — replay: the baseline zero-heuristic search, pruned to the
  // corridor the probe's path cost proves sufficient.
  const double limit = with_slack(std::min(scratch.alt.upper, probe.cost));
  CsrSearch run = RunSearchPruned(
      g, seeds, is_target, zero,
      [&](NodeIndex u, double du) { return du + bound(u) > limit; },
      scratch);
#ifdef HABIT_ALT_TRACE
  std::fprintf(stderr,
               "ALT_TRACE upper=%.3f probe_cost=%.3f probe_exp=%zu "
               "cost=%.3f found=%d exp=%zu\n",
               scratch.alt.upper, probe.cost, probe.expanded, run.cost,
               run.found ? 1 : 0, run.expanded);
#endif
  if (!run.found) {
    // A real path of cost <= limit exists (the probe walked one), so this
    // is unreachable only under corrupt columns: same fallback.
    run = RunSearch(g, seeds, is_target, zero, scratch);
  }
  return run;
}

}  // namespace habit::graph
