// CSR equivalence suite: the frozen CompactGraph must agree with the
// mutable Digraph it was frozen from — per-node/per-edge attributes, degree
// arrays, shortest paths against a test-local reference Dijkstra, component
// structure, and size accounting — search scratch reuse across many
// queries must never leak state between generations, and the search's
// bucket queue must settle exactly as the binary heap it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/rng.h"
#include "eval/harness.h"
#include "graph/digraph.h"
#include "graph/search.h"
#include "graph/shortest_path.h"
#include "graph/snapshot.h"
#include "habit/graph_builder.h"
#include "hexgrid/hexgrid.h"

namespace habit::graph {
namespace {

// A random weighted digraph over ids drawn sparsely from a large id space
// (so the dense-index mapping is exercised, not just 0..n-1).
Digraph MakeRandomGraph(uint64_t seed, int num_nodes, int edges_per_node) {
  Rng rng(seed);
  std::vector<NodeId> ids;
  ids.reserve(num_nodes);
  std::set<NodeId> used;
  while (static_cast<int>(ids.size()) < num_nodes) {
    const NodeId id = rng.UniformInt(1, 1'000'000'000);
    if (used.insert(id).second) ids.push_back(id);
  }
  Digraph g;
  for (const NodeId id : ids) {
    NodeAttrs attrs;
    attrs.message_count = static_cast<int64_t>(rng.UniformInt(0, 500));
    attrs.distinct_vessels = static_cast<int64_t>(rng.UniformInt(0, 50));
    attrs.median_sog = rng.Uniform(0.0, 20.0);
    attrs.median_cog = rng.Uniform(0.0, 360.0);
    attrs.median_pos = {rng.Uniform(54.0, 58.0), rng.Uniform(9.0, 13.0)};
    attrs.center_pos = attrs.median_pos;
    g.AddNode(id, attrs);
  }
  for (const NodeId u : ids) {
    for (int k = 0; k < edges_per_node; ++k) {
      const NodeId v = ids[rng.UniformInt(0, num_nodes - 1)];
      if (v == u) continue;
      EdgeAttrs attrs;
      attrs.weight = rng.Uniform(0.1, 5.0);
      attrs.transitions = static_cast<int64_t>(rng.UniformInt(1, 100));
      attrs.grid_distance = static_cast<int64_t>(rng.UniformInt(1, 4));
      g.AddEdge(u, v, attrs);
    }
  }
  return g;
}

std::vector<NodeId> AllIds(const Digraph& g) {
  std::vector<NodeId> ids;
  g.ForEachNode([&](NodeId id, const NodeAttrs&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Test-local reference shortest path over the *mutable* graph: textbook
// Dijkstra on hash maps, sharing no code with the CSR engine under test.
double ReferenceDijkstraCost(const Digraph& g, NodeId source, NodeId target) {
  std::unordered_map<NodeId, double> dist;
  std::unordered_set<NodeId> settled;
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[source] = 0.0;
  queue.push({0.0, source});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (!settled.insert(u).second) continue;
    if (u == target) return d;
    for (const auto& [v, attrs] : g.OutEdges(u)) {
      const double cand = d + attrs.weight;
      auto it = dist.find(v);
      if (it == dist.end() || cand < it->second) {
        dist[v] = cand;
        queue.push({cand, v});
      }
    }
  }
  return std::numeric_limits<double>::infinity();
}

// Path legality + cost consistency against the frozen graph's own edges.
void ExpectValidPath(const CompactGraph& g, const PathResult& path,
                     NodeId source, NodeId target) {
  ASSERT_FALSE(path.nodes.empty());
  EXPECT_EQ(path.nodes.front(), source);
  EXPECT_EQ(path.nodes.back(), target);
  double cost = 0.0;
  for (size_t i = 1; i < path.nodes.size(); ++i) {
    auto edge = g.GetEdge(path.nodes[i - 1], path.nodes[i]);
    ASSERT_TRUE(edge.ok()) << "path uses a non-edge";
    cost += edge.value().weight;
  }
  EXPECT_NEAR(cost, path.cost, 1e-9);
}

TEST(CompactGraphTest, FreezePreservesNodesEdgesAndAttrs) {
  const Digraph g = MakeRandomGraph(7, 120, 3);
  const CompactGraph frozen = g.Freeze();

  ASSERT_EQ(frozen.num_nodes(), g.num_nodes());
  ASSERT_EQ(frozen.num_edges(), g.num_edges());

  for (const NodeId id : AllIds(g)) {
    const NodeIndex idx = frozen.IndexOf(id);
    ASSERT_NE(idx, kInvalidNodeIndex);
    EXPECT_EQ(frozen.IdOf(idx), id);

    const NodeAttrs want = g.GetNode(id).value();
    const NodeAttrs got = frozen.GetNode(id).value();
    EXPECT_EQ(got.message_count, want.message_count);
    EXPECT_EQ(got.distinct_vessels, want.distinct_vessels);
    EXPECT_DOUBLE_EQ(got.median_sog, want.median_sog);
    EXPECT_DOUBLE_EQ(got.median_pos.lat, want.median_pos.lat);
    EXPECT_DOUBLE_EQ(got.median_pos.lng, want.median_pos.lng);

    EXPECT_EQ(frozen.OutDegree(idx), g.OutEdges(id).size());
  }

  // Every mutable edge is present with identical attributes, and the degree
  // arrays are consistent with a recount.
  std::unordered_map<NodeId, uint32_t> in_degree;
  g.ForEachEdge([&](NodeId u, NodeId v, const EdgeAttrs& attrs) {
    auto got = frozen.GetEdge(u, v);
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(got.value().weight, attrs.weight);
    EXPECT_EQ(got.value().transitions, attrs.transitions);
    EXPECT_EQ(got.value().grid_distance, attrs.grid_distance);
    ++in_degree[v];
  });
  for (const NodeId id : AllIds(g)) {
    const auto it = in_degree.find(id);
    EXPECT_EQ(frozen.InDegree(frozen.IndexOf(id)),
              it == in_degree.end() ? 0u : it->second);
  }

  EXPECT_EQ(frozen.IndexOf(12345), kInvalidNodeIndex);  // id not inserted
  EXPECT_FALSE(frozen.GetNode(12345).ok());
}

TEST(CompactGraphTest, DijkstraAndAStarMatchReference) {
  const Digraph g = MakeRandomGraph(11, 150, 3);
  const CompactGraph frozen = g.Freeze();
  const std::vector<NodeId> ids = AllIds(g);

  Rng rng(13);
  int connected_pairs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId source = ids[rng.UniformInt(0, ids.size() - 1)];
    const NodeId target = ids[rng.UniformInt(0, ids.size() - 1)];
    const double want = ReferenceDijkstraCost(g, source, target);
    auto dij = Dijkstra(frozen, source, target);
    auto astar = AStar(frozen, source, target, [](NodeId) { return 0.0; });
    if (std::isinf(want)) {
      EXPECT_EQ(dij.status().code(), StatusCode::kUnreachable);
      EXPECT_EQ(astar.status().code(), StatusCode::kUnreachable);
      continue;
    }
    ++connected_pairs;
    ASSERT_TRUE(dij.ok());
    ASSERT_TRUE(astar.ok());
    EXPECT_NEAR(dij.value().cost, want, 1e-9);
    EXPECT_NEAR(astar.value().cost, want, 1e-9);
    ExpectValidPath(frozen, dij.value(), source, target);
    ExpectValidPath(frozen, astar.value(), source, target);
  }
  EXPECT_GT(connected_pairs, 5);  // the random graph is dense enough
}

TEST(CompactGraphTest, ComponentCountsMatchReference) {
  // Reference weak components over the mutable graph (label propagation via
  // BFS on an undirected map).
  const Digraph g = MakeRandomGraph(17, 80, 1);
  std::unordered_map<NodeId, std::vector<NodeId>> undirected;
  g.ForEachNode([&](NodeId id, const NodeAttrs&) { undirected[id]; });
  g.ForEachEdge([&](NodeId u, NodeId v, const EdgeAttrs&) {
    undirected[u].push_back(v);
    undirected[v].push_back(u);
  });
  std::multiset<size_t> want_sizes;
  std::unordered_set<NodeId> seen;
  for (const auto& [start, nbrs] : undirected) {
    if (seen.contains(start)) continue;
    size_t size = 0;
    std::queue<NodeId> frontier;
    frontier.push(start);
    seen.insert(start);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      ++size;
      for (const NodeId v : undirected.at(u)) {
        if (seen.insert(v).second) frontier.push(v);
      }
    }
    want_sizes.insert(size);
  }

  const CompactGraph frozen = g.Freeze();
  const auto comps = WeaklyConnectedComponents(frozen);
  std::multiset<size_t> got_sizes;
  size_t total = 0;
  for (const auto& c : comps) {
    got_sizes.insert(c.size());
    total += c.size();
  }
  EXPECT_EQ(got_sizes, want_sizes);
  EXPECT_EQ(total, frozen.num_nodes());

  // SCC partition sanity on the same graph: components partition the nodes.
  size_t scc_total = 0;
  for (const auto& c : StronglyConnectedComponents(frozen)) {
    scc_total += c.size();
  }
  EXPECT_EQ(scc_total, frozen.num_nodes());
}

TEST(CompactGraphTest, SizeAccountingConsistent) {
  const Digraph g = MakeRandomGraph(23, 60, 2);
  const CompactGraph frozen = g.Freeze();
  // The persisted artifact is identical, so the Table 2 number must not
  // change with the in-memory representation.
  EXPECT_EQ(frozen.SerializedSizeBytes(), g.SerializedSizeBytes());
  EXPECT_GT(frozen.SizeBytes(), 0u);
  // CSR drops the hash-map and per-vector overheads.
  EXPECT_LT(frozen.SizeBytes(), g.SizeBytes());

  // Attribute-less freeze keeps topology but sheds the statistics columns.
  const CompactGraph topo = g.Freeze(/*keep_attrs=*/false);
  EXPECT_EQ(topo.num_nodes(), frozen.num_nodes());
  EXPECT_EQ(topo.num_edges(), frozen.num_edges());
  EXPECT_FALSE(topo.has_attrs());
  EXPECT_LT(topo.SizeBytes(), frozen.SizeBytes());
  g.ForEachEdge([&](NodeId u, NodeId v, const EdgeAttrs& attrs) {
    auto got = topo.GetEdge(u, v);
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(got.value().weight, attrs.weight);
  });
}

TEST(SearchScratchTest, ReuseAcrossManyQueriesMatchesFreshScratch) {
  // Stale-generation regression: one scratch shared by hundreds of queries
  // (including unreachable ones) must give bit-identical costs to a fresh
  // scratch per query.
  const Digraph g = MakeRandomGraph(31, 100, 2);
  const CompactGraph frozen = g.Freeze();
  const std::vector<NodeId> ids = AllIds(g);

  Rng rng(37);
  SearchScratch shared;
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId source = ids[rng.UniformInt(0, ids.size() - 1)];
    const NodeId target = ids[rng.UniformInt(0, ids.size() - 1)];
    auto reused = Dijkstra(frozen, source, target, &shared);
    auto fresh = Dijkstra(frozen, source, target);
    ASSERT_EQ(reused.ok(), fresh.ok());
    if (!reused.ok()) {
      EXPECT_EQ(reused.status().code(), fresh.status().code());
      continue;
    }
    EXPECT_DOUBLE_EQ(reused.value().cost, fresh.value().cost);
    EXPECT_EQ(reused.value().nodes, fresh.value().nodes);
    EXPECT_EQ(reused.value().expanded, fresh.value().expanded);
  }
}

TEST(SearchScratchTest, GenerationWraparoundResetsStamps) {
  // Force the uint32 generation counter to wrap: the scratch must hard-reset
  // its stamps instead of treating stale marks as current.
  const Digraph g = MakeRandomGraph(41, 40, 2);
  const CompactGraph frozen = g.Freeze();
  const std::vector<NodeId> ids = AllIds(g);

  SearchScratch scratch;
  auto before = Dijkstra(frozen, ids[0], ids[1], &scratch);
  scratch.generation = UINT32_MAX - 1;  // two queries to the wrap boundary
  for (int i = 0; i < 4; ++i) {
    auto across = Dijkstra(frozen, ids[0], ids[1], &scratch);
    ASSERT_EQ(across.ok(), before.ok());
    if (before.ok()) {
      EXPECT_DOUBLE_EQ(across.value().cost, before.value().cost);
      EXPECT_EQ(across.value().nodes, before.value().nodes);
    }
  }

  // A scratch grown on a big graph keeps working on a smaller one.
  const CompactGraph small = MakeRandomGraph(43, 10, 2).Freeze();
  const std::vector<NodeId> small_ids = [&] {
    std::vector<NodeId> out;
    small.ForEachNode([&](NodeId id, const NodeAttrs&) { out.push_back(id); });
    return out;
  }();
  auto on_small = Dijkstra(small, small_ids[0], small_ids[0], &scratch);
  ASSERT_TRUE(on_small.ok());
  EXPECT_DOUBLE_EQ(on_small.value().cost, 0.0);
}

// Seeds `source` and runs a search to the scratch's stamped target set: the
// imputer's calling pattern (PrepareTargets, MarkTarget, IsTarget).
CsrSearch SearchToTargets(const CompactGraph& g, NodeIndex source,
                          const std::vector<NodeIndex>& targets,
                          SearchScratch& scratch) {
  scratch.PrepareTargets(g.num_nodes());
  for (const NodeIndex t : targets) scratch.MarkTarget(t);
  const SearchSeed seeds[] = {{source, 0.0}};
  return RunSearch(
      g, seeds, [&](NodeIndex u) { return scratch.IsTarget(u); },
      [](NodeIndex) { return 0.0; }, scratch);
}

TEST(SearchScratchTest, TargetGenerationWraparoundResetsStamps) {
  // The target stamps keep their own generation; when it wraps, a stamp
  // left from an old query must not read as a target of the new one.
  const Digraph g = MakeRandomGraph(47, 40, 2);
  const CompactGraph frozen = g.Freeze();
  const NodeIndex n = static_cast<NodeIndex>(frozen.num_nodes());

  SearchScratch scratch;
  scratch.PrepareTargets(n);  // target_generation 1
  scratch.MarkTarget(5);
  scratch.target_generation = UINT32_MAX - 1;
  scratch.PrepareTargets(n);  // UINT32_MAX
  scratch.MarkTarget(7);
  EXPECT_TRUE(scratch.IsTarget(7));
  EXPECT_FALSE(scratch.IsTarget(5));
  scratch.PrepareTargets(n);  // wraps: every stamp reset, generation 1
  EXPECT_EQ(scratch.target_generation, 1u);
  for (NodeIndex u = 0; u < n; ++u) EXPECT_FALSE(scratch.IsTarget(u)) << u;

  // Searches across the wrap answer as a fresh scratch does.
  scratch.target_generation = UINT32_MAX - 2;
  for (int i = 0; i < 5; ++i) {
    const std::vector<NodeIndex> targets = {static_cast<NodeIndex>(i + 3),
                                            static_cast<NodeIndex>(n - 1 - i)};
    SearchScratch fresh;
    const CsrSearch want = SearchToTargets(frozen, 0, targets, fresh);
    const CsrSearch got = SearchToTargets(frozen, 0, targets, scratch);
    ASSERT_EQ(got.found, want.found);
    EXPECT_EQ(got.reached, want.reached);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.expanded, want.expanded);
  }
}

TEST(SearchScratchTest, ScratchGrowsFromASmallGraphToALargerOne) {
  // A scratch sized by a small graph's queries must grow every stamp
  // array, target stamps included, when a larger graph reuses it.
  const CompactGraph small = MakeRandomGraph(59, 12, 2).Freeze();
  const CompactGraph large = MakeRandomGraph(61, 400, 3).Freeze();
  SearchScratch scratch;
  (void)SearchToTargets(small, 0, {3, 11}, scratch);
  Rng rng(67);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeIndex source =
        static_cast<NodeIndex>(rng.UniformInt(0, large.num_nodes() - 1));
    std::vector<NodeIndex> targets;
    for (int k = 0; k < 4; ++k) {
      targets.push_back(
          static_cast<NodeIndex>(rng.UniformInt(0, large.num_nodes() - 1)));
    }
    SearchScratch fresh;
    const CsrSearch want = SearchToTargets(large, source, targets, fresh);
    const CsrSearch got = SearchToTargets(large, source, targets, scratch);
    ASSERT_EQ(got.found, want.found) << trial;
    EXPECT_EQ(got.reached, want.reached) << trial;
    EXPECT_EQ(got.cost, want.cost) << trial;
    EXPECT_EQ(got.expanded, want.expanded) << trial;
  }
  EXPECT_GE(scratch.target_stamp.size(), large.num_nodes());
}

// ---------------------------------------------------------------------------
// The bucket queue against the binary heap it replaced. HeapSearchPruned is
// RunSearchPruned as it stood with a lazy binary heap ordered by (priority,
// node), copied verbatim. Every search must settle the same nodes in the
// same order, return the same result, and leave the same dist and parent
// on every settled node.

template <typename IsTargetFn, typename HeuristicFn, typename PruneFn>
CsrSearch HeapSearchPruned(const CompactGraph& g,
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

// Out-edges of each node as (target, weight), in CSR order.
using CsrRows = std::vector<std::vector<std::pair<NodeIndex, double>>>;

CsrRows RowsOf(const CompactGraph& g) {
  CsrRows rows(g.num_nodes());
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      rows[u].push_back({nbrs[e], weights[e]});
    }
  }
  return rows;
}

// Writes `rows` as a bare graph snapshot (no attributes, no landmarks) and
// loads it back, copied or mapped: the way to a CompactGraph with
// self-loops and parallel edges, which a Digraph cannot hold.
CompactGraph LoadRows(const CsrRows& rows, bool mapped) {
  const size_t n = rows.size();
  std::vector<NodeId> ids(n);
  std::vector<uint32_t> offsets(n + 1, 0);
  std::vector<NodeIndex> dst;
  std::vector<double> weight;
  std::vector<uint32_t> in_degree(n, 0);
  for (size_t u = 0; u < n; ++u) {
    ids[u] = 1000 + 7 * u;
    for (const auto& [v, w] : rows[u]) {
      dst.push_back(v);
      weight.push_back(w);
      ++in_degree[v];
    }
    offsets[u + 1] = static_cast<uint32_t>(dst.size());
  }
  SnapshotWriter writer;
  writer.Array(ids);
  writer.Array(offsets);
  writer.Array(dst);
  writer.Array(weight);
  writer.Array(in_degree);
  writer.U32(0);  // no attribute columns
  writer.U32(0);  // no landmarks
  writer.Array(std::vector<NodeIndex>{});
  writer.Array(std::vector<double>{});
  writer.Array(std::vector<double>{});
  const std::string path =
      (std::filesystem::temp_directory_path() / "band_queue_rows.snap")
          .string();
  EXPECT_TRUE(writer.WriteToFile(path, SnapshotKind::kCompactGraph).ok());
  auto g = mapped ? LoadGraphSnapshotMapped(path) : LoadGraphSnapshot(path);
  std::remove(path.c_str());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return g.ok() ? g.MoveValue() : CompactGraph();
}

enum class WeightKind {
  kSmallInts,   // 1, 2 or 3: equal priorities in every band
  kNearOne,     // (1, 1.5], HABIT's default cost per grid step
  kBelowOne,    // (0.05, 0.8], like cost=invfreq
  kWithZeros,   // a third zero, the rest (0.05, 0.8]
  kSpread,      // log-uniform over 1e-6 .. 1e6
  kEqual,       // every edge 0.7
};

double DrawWeight(WeightKind kind, Rng& rng) {
  switch (kind) {
    case WeightKind::kSmallInts:
      return static_cast<double>(rng.UniformInt(1, 3));
    case WeightKind::kNearOne:
      return 1.5 - rng.Uniform(0.0, 0.5);
    case WeightKind::kBelowOne:
      return 0.8 - rng.Uniform(0.0, 0.75);
    case WeightKind::kWithZeros:
      return rng.Bernoulli(1.0 / 3.0) ? 0.0 : 0.8 - rng.Uniform(0.0, 0.75);
    case WeightKind::kSpread:
      return std::exp(rng.Uniform(std::log(1e-6), std::log(1e6)));
    case WeightKind::kEqual:
      return 0.7;
  }
  return 1.0;
}

// Out-degree 0-8. Most edges stay near their source, so searches run long
// paths; some jump anywhere, some are self-loops or repeat an earlier
// edge's target.
CsrRows RandomRows(Rng& rng, size_t n, WeightKind kind) {
  CsrRows rows(n);
  for (size_t u = 0; u < n; ++u) {
    const int64_t degree = rng.UniformInt(0, 8);
    for (int64_t k = 0; k < degree; ++k) {
      const double pick = rng.Uniform(0.0, 1.0);
      size_t v;
      if (pick < 0.05) {
        v = u;
      } else if (pick < 0.15 && !rows[u].empty()) {
        v = rows[u][rng.UniformInt(0, rows[u].size() - 1)].first;
      } else if (pick < 0.8) {
        v = (u + rng.UniformInt(1, 12)) % n;
      } else {
        v = rng.UniformInt(0, n - 1);
      }
      rows[u].push_back({static_cast<NodeIndex>(v), DrawWeight(kind, rng)});
    }
  }
  return rows;
}

// Exact cost from every node to the nearest of `sinks` (+inf when none is
// reachable): a consistent heuristic toward them.
std::vector<double> CostToSinks(const CsrRows& rows,
                                const std::vector<NodeIndex>& sinks) {
  const size_t n = rows.size();
  std::vector<std::vector<std::pair<NodeIndex, double>>> reverse(n);
  for (size_t u = 0; u < n; ++u) {
    for (const auto& [v, w] : rows[u]) {
      reverse[v].push_back({static_cast<NodeIndex>(u), w});
    }
  }
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, NodeIndex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (const NodeIndex s : sinks) {
    dist[s] = 0.0;
    queue.push({0.0, s});
  }
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[v]) continue;
    for (const auto& [u, w] : reverse[v]) {
      if (d + w < dist[u]) {
        dist[u] = d + w;
        queue.push({dist[u], u});
      }
    }
  }
  return dist;
}

// One query: seeds, a target mask, a heuristic and a monotone prune
// (`du > cap[u]`; +inf everywhere prunes nothing).
struct OracleQuery {
  std::vector<SearchSeed> seeds;
  std::vector<char> target;
  const std::vector<double>* h = nullptr;
  std::vector<double> cap;
  std::string what;
};

// The five heuristics a query draws from, over one graph.
struct Heuristics {
  std::vector<double> zero, consistent, doubled, some_inf, noisy;
  explicit Heuristics(const CsrRows& rows, Rng& rng, double max_w)
      : zero(rows.size(), 0.0) {
    const size_t n = rows.size();
    std::vector<NodeIndex> sinks;
    for (int k = 0; k < 3; ++k) {
      sinks.push_back(static_cast<NodeIndex>(rng.UniformInt(0, n - 1)));
    }
    consistent = CostToSinks(rows, sinks);
    doubled = consistent;
    for (double& x : doubled) x *= 2.0;
    some_inf.assign(n, 0.0);
    noisy.assign(n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      if (rng.Bernoulli(0.1)) {
        some_inf[u] = std::numeric_limits<double>::infinity();
      }
      noisy[u] = rng.Uniform(0.0, 3.0 * max_w);
    }
  }
};

OracleQuery RandomQuery(Rng& rng, const CompactGraph& g, const Heuristics& hs,
                        double max_w) {
  const size_t n = g.num_nodes();
  OracleQuery q;
  // Seeds drawn from a pool smaller than their count repeat nodes.
  const int64_t num_seeds = rng.UniformInt(1, 6);
  const int64_t pool = rng.UniformInt(1, num_seeds);
  const NodeIndex first = static_cast<NodeIndex>(rng.UniformInt(0, n - 1));
  for (int64_t k = 0; k < num_seeds; ++k) {
    const NodeIndex node =
        static_cast<NodeIndex>((first + rng.UniformInt(0, pool - 1)) % n);
    const double cost = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 50.0);
    q.seeds.push_back({rng.Bernoulli(0.05) ? kInvalidNodeIndex : node, cost});
  }
  q.target.assign(n, 0);
  const int64_t targets = rng.UniformInt(0, 2);  // none, one, many
  const size_t count = targets == 0 ? 0 : targets == 1 ? 1 : n / 40 + 2;
  for (size_t k = 0; k < count; ++k) q.target[rng.UniformInt(0, n - 1)] = 1;
  const int64_t h = rng.UniformInt(0, 4);
  q.h = h == 0   ? &hs.zero
        : h == 1 ? &hs.consistent
        : h == 2 ? &hs.doubled
        : h == 3 ? &hs.some_inf
                 : &hs.noisy;
  const bool prune = rng.Bernoulli(0.3);
  q.cap.assign(n, std::numeric_limits<double>::infinity());
  if (prune) {
    for (double& c : q.cap) {
      if (rng.Bernoulli(0.3)) c = rng.Uniform(0.0, 40.0 * max_w + 50.0);
    }
  }
  q.what = "seeds " + std::to_string(num_seeds) + ", targets " +
           std::to_string(count) + ", heuristic " + std::to_string(h) +
           (prune ? ", pruned" : "");
  return q;
}

struct SearchTrace {
  CsrSearch result;
  std::vector<NodeIndex> settled;  ///< in settle order
  std::vector<double> dist;        ///< of each settled node
  std::vector<NodeIndex> parent;   ///< of each settled node
};

template <typename SearchFn>
SearchTrace Traced(SearchFn&& search, const CompactGraph& g,
                   const OracleQuery& q, SearchScratch& scratch) {
  SearchTrace t;
  const auto is_target = [&](NodeIndex u) {
    t.settled.push_back(u);
    return q.target[u] != 0;
  };
  const auto h = [&](NodeIndex u) { return (*q.h)[u]; };
  const auto prune = [&](NodeIndex u, double du) { return du > q.cap[u]; };
  t.result = search(g, std::span<const SearchSeed>(q.seeds), is_target, h,
                    prune, scratch);
  for (const NodeIndex u : t.settled) {
    t.dist.push_back(scratch.dist[u]);
    t.parent.push_back(scratch.parent[u]);
  }
  return t;
}

// Empty when the two traces agree, else what differs first.
std::string TraceDiff(const SearchTrace& want, const SearchTrace& got) {
  if (got.settled != want.settled) {
    size_t i = 0;
    while (i < got.settled.size() && i < want.settled.size() &&
           got.settled[i] == want.settled[i]) {
      ++i;
    }
    return "settle sequences part at position " + std::to_string(i) +
           " of " + std::to_string(want.settled.size()) + " (got " +
           std::to_string(got.settled.size()) + ")";
  }
  if (got.result.found != want.result.found ||
      got.result.reached != want.result.reached ||
      got.result.cost != want.result.cost ||
      got.result.expanded != want.result.expanded) {
    return "results differ";
  }
  if (got.dist != want.dist) return "dist differs";
  if (got.parent != want.parent) return "parent differs";
  return "";
}

const auto kBandQueueSearch = [](const CompactGraph& g,
                                 std::span<const SearchSeed> seeds,
                                 auto& is_target, auto& h, auto& prune,
                                 SearchScratch& scratch) {
  return RunSearchPruned(g, seeds, is_target, h, prune, scratch);
};
const auto kHeapSearch = [](const CompactGraph& g,
                            std::span<const SearchSeed> seeds,
                            auto& is_target, auto& h, auto& prune,
                            SearchScratch& scratch) {
  return HeapSearchPruned(g, seeds, is_target, h, prune, scratch);
};

// Runs `queries` random queries on `g` through both queues; the queue under
// test reuses `scratch`. Returns false at the first disagreement.
bool MatchesTheHeap(const CompactGraph& g, const CsrRows& rows, Rng& rng,
                    int queries, SearchScratch& scratch,
                    const std::string& graph) {
  const double max_w = std::max(g.weight_range().max, 1.0);
  const Heuristics hs(rows, rng, max_w);
  SearchScratch reference;
  size_t settled = 0;
  for (int i = 0; i < queries; ++i) {
    const OracleQuery q = RandomQuery(rng, g, hs, max_w);
    const SearchTrace want = Traced(kHeapSearch, g, q, reference);
    const SearchTrace got = Traced(kBandQueueSearch, g, q, scratch);
    const std::string diff = TraceDiff(want, got);
    if (!diff.empty()) {
      ADD_FAILURE() << graph << ", query " << i << " (" << q.what
                    << "): " << diff;
      return false;
    }
    settled += want.settled.size();
  }
  EXPECT_GT(settled, static_cast<size_t>(queries)) << graph;
  return true;
}

TEST(BandQueueTest, SettlesExactlyAsTheBinaryHeapOnRandomGraphs) {
  // One scratch for every graph: weight ranges go wide -> narrow -> wide,
  // so its ring shrinks and grows, and its generation wraps on the way.
  const WeightKind order[] = {
      WeightKind::kSpread,   WeightKind::kNearOne,   WeightKind::kSmallInts,
      WeightKind::kBelowOne, WeightKind::kWithZeros, WeightKind::kEqual,
      WeightKind::kSpread,   WeightKind::kNearOne};
  Rng rng(20260);
  SearchScratch scratch;
  int graph = 0;
  for (const WeightKind kind : order) {
    for (int rep = 0; rep < 2; ++rep, ++graph) {
      const size_t n = static_cast<size_t>(
          rep == 0 ? rng.UniformInt(50, 400) : rng.UniformInt(1000, 3000));
      const CsrRows rows = RandomRows(rng, n, kind);
      const CompactGraph g = LoadRows(rows, /*mapped=*/graph % 2 == 1);
      ASSERT_EQ(g.num_nodes(), n);
      if (graph == 5) scratch.generation = UINT32_MAX - 3;
      const std::string name = "graph " + std::to_string(graph) +
                               " (weight kind " +
                               std::to_string(static_cast<int>(kind)) +
                               ", " + std::to_string(n) + " nodes)";
      ASSERT_TRUE(MatchesTheHeap(g, rows, rng, 60, scratch, name));
    }
  }
  EXPECT_LT(scratch.generation, 1000u);  // it wrapped
}

TEST(BandQueueTest, SettlesExactlyAsTheBinaryHeapOnKielCells) {
  // A built HABIT graph at r=10, with the default costs and with cost=hops
  // (every weight 1 per grid step, so priorities tie everywhere), owned and
  // mapped.
  eval::ExperimentOptions options;
  options.scale = 0.2;
  auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
  Rng rng(20261);
  SearchScratch scratch;
  for (const core::EdgeCostPolicy cost :
       {core::EdgeCostPolicy::kHopsThenFrequency,
        core::EdgeCostPolicy::kHops}) {
    core::HabitConfig config;
    config.resolution = 10;
    config.edge_cost = cost;
    const CompactGraph owned =
        core::BuildGraphFromTrips(exp.train_trips, config).MoveValue().Freeze();
    ASSERT_GT(owned.num_nodes(), 1000u);
    const CsrRows rows = RowsOf(owned);
    const CompactGraph mapped = LoadRows(rows, /*mapped=*/true);
    for (const CompactGraph* g : {&owned, &mapped}) {
      const std::string name = std::string("KIEL r=10, cost=") +
                               core::EdgeCostPolicyToString(cost) +
                               (g->is_mapped() ? ", mapped" : ", owned");
      ASSERT_TRUE(MatchesTheHeap(*g, rows, rng, 80, scratch, name));
    }
  }
}

TEST(BandQueueTest, RingSizeFollowsTheWeightRange) {
  // The ring is sized from the graph's weight range, which every way of
  // making a graph records: HABIT-like weights take 4 bands, a wide range
  // takes 64, and a scratch keeps the largest ring it has needed.
  Rng rng(20262);
  SearchScratch scratch;
  const auto search_once = [&](const CompactGraph& g) {
    const SearchSeed seeds[] = {{0, 0.0}};
    RunSearch(
        g, seeds, [](NodeIndex) { return false; },
        [](NodeIndex) { return 0.0; }, scratch);
  };
  const CsrRows near_one = RandomRows(rng, 200, WeightKind::kNearOne);
  for (const bool mapped : {false, true}) {
    const CompactGraph g = LoadRows(near_one, mapped);
    EXPECT_GT(g.weight_range().min, 1.0);
    EXPECT_LE(g.weight_range().max, 1.5);
    search_once(g);
    EXPECT_EQ(scratch.buckets.size(), 4u);
  }
  const CompactGraph wide =
      LoadRows(RandomRows(rng, 200, WeightKind::kSpread), false);
  search_once(wide);
  EXPECT_EQ(scratch.buckets.size(), 64u);
  search_once(LoadRows(near_one, false));
  EXPECT_EQ(scratch.buckets.size(), 64u);

  const CompactGraph frozen = MakeRandomGraph(71, 50, 3).Freeze();
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  frozen.ForEachEdge([&](NodeId, NodeId, const EdgeAttrs& attrs) {
    lo = std::min(lo, attrs.weight);
    hi = std::max(hi, attrs.weight);
  });
  EXPECT_EQ(frozen.weight_range().min, lo);
  EXPECT_EQ(frozen.weight_range().max, hi);
  EXPECT_EQ(CompactGraph().weight_range().max, 0.0);
}

// ---------------------------------------------------------------------------
// Binary snapshots: LoadGraphSnapshot(SaveGraphSnapshot(g)) must be
// indistinguishable from g — the equality contract all persistence work
// tests against.

std::string SnapshotPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Exhaustive equality of two frozen graphs: identity arrays, degrees,
// attributes, weights, and size accounting.
void ExpectGraphsIdentical(const CompactGraph& a, const CompactGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.has_attrs(), b.has_attrs());
  EXPECT_EQ(a.SizeBytes(), b.SizeBytes());
  EXPECT_EQ(a.SerializedSizeBytes(), b.SerializedSizeBytes());
  for (NodeIndex i = 0; i < a.num_nodes(); ++i) {
    ASSERT_EQ(a.IdOf(i), b.IdOf(i));
    EXPECT_EQ(b.IndexOf(a.IdOf(i)), i);
    EXPECT_EQ(a.OutDegree(i), b.OutDegree(i));
    EXPECT_EQ(a.InDegree(i), b.InDegree(i));
    const auto nbr_a = a.OutNeighbors(i);
    const auto nbr_b = b.OutNeighbors(i);
    const auto w_a = a.OutWeights(i);
    const auto w_b = b.OutWeights(i);
    ASSERT_TRUE(std::equal(nbr_a.begin(), nbr_a.end(), nbr_b.begin(),
                           nbr_b.end()));
    ASSERT_TRUE(std::equal(w_a.begin(), w_a.end(), w_b.begin(), w_b.end()));
    if (a.has_attrs()) {
      const NodeAttrs na = a.NodeAttrsAt(i);
      const NodeAttrs nb = b.NodeAttrsAt(i);
      EXPECT_EQ(na.median_pos, nb.median_pos);
      EXPECT_EQ(na.center_pos, nb.center_pos);
      EXPECT_EQ(na.message_count, nb.message_count);
      EXPECT_EQ(na.distinct_vessels, nb.distinct_vessels);
      EXPECT_EQ(na.median_sog, nb.median_sog);
      EXPECT_EQ(na.median_cog, nb.median_cog);
    }
  }
  for (size_t e = 0; e < a.num_edges(); ++e) {
    const EdgeAttrs ea = a.EdgeAttrsAt(e);
    const EdgeAttrs eb = b.EdgeAttrsAt(e);
    EXPECT_EQ(ea.weight, eb.weight);
    EXPECT_EQ(ea.transitions, eb.transitions);
    EXPECT_EQ(ea.grid_distance, eb.grid_distance);
  }
}

TEST(SnapshotTest, RandomizedGraphsRoundTripExactly) {
  for (const uint64_t seed : {3u, 5u, 9u}) {
    const Digraph g = MakeRandomGraph(seed, 90, 3);
    const CompactGraph frozen = g.Freeze();
    const std::string path = SnapshotPath("graph_roundtrip.snap");
    ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
    auto loaded = LoadGraphSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectGraphsIdentical(frozen, loaded.value());

    // Shortest paths over the loaded graph are bit-identical to the saved
    // one (costs and node sequences).
    const std::vector<NodeId> ids = AllIds(g);
    Rng rng(seed + 100);
    for (int trial = 0; trial < 30; ++trial) {
      const NodeId s = ids[rng.UniformInt(0, ids.size() - 1)];
      const NodeId t = ids[rng.UniformInt(0, ids.size() - 1)];
      auto want = Dijkstra(frozen, s, t);
      auto got = Dijkstra(loaded.value(), s, t);
      ASSERT_EQ(want.ok(), got.ok());
      if (want.ok()) {
        EXPECT_EQ(want.value().cost, got.value().cost);
        EXPECT_EQ(want.value().nodes, got.value().nodes);
      }
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, AttributeLessGraphRoundTrips) {
  // The GTI point graph freezes without statistics columns; the snapshot
  // must preserve that shape instead of materializing empty columns.
  const Digraph g = MakeRandomGraph(13, 50, 2);
  const CompactGraph topo = g.Freeze(/*keep_attrs=*/false);
  const std::string path = SnapshotPath("graph_topo.snap");
  ASSERT_TRUE(SaveGraphSnapshot(topo, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_attrs());
  ExpectGraphsIdentical(topo, loaded.value());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  const CompactGraph empty = Digraph().Freeze();
  const std::string path = SnapshotPath("graph_empty.snap");
  ASSERT_TRUE(SaveGraphSnapshot(empty, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), 0u);
  EXPECT_EQ(loaded.value().num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ChecksumIsAStableFingerprint) {
  const CompactGraph frozen = MakeRandomGraph(17, 60, 2).Freeze();
  const std::string path_a = SnapshotPath("graph_fp_a.snap");
  const std::string path_b = SnapshotPath("graph_fp_b.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path_a).ok());
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path_b).ok());
  auto info_a = InspectSnapshot(path_a);
  auto info_b = InspectSnapshot(path_b);
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  // Same model -> same checksum (the dataset fingerprint a model cache
  // keys on); a different model -> a different one.
  EXPECT_EQ(info_a.value().checksum, info_b.value().checksum);
  EXPECT_EQ(info_a.value().kind, SnapshotKind::kCompactGraph);

  const CompactGraph other = MakeRandomGraph(19, 60, 2).Freeze();
  ASSERT_TRUE(SaveGraphSnapshot(other, path_b).ok());
  auto info_other = InspectSnapshot(path_b);
  ASSERT_TRUE(info_other.ok());
  EXPECT_NE(info_a.value().checksum, info_other.value().checksum);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SnapshotTest, CorruptFilesAreRejected) {
  const CompactGraph frozen = MakeRandomGraph(23, 40, 2).Freeze();
  const std::string path = SnapshotPath("graph_corrupt.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(64);
    f.write(&byte, 1);
  }
  auto flipped = LoadGraphSnapshot(path);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kIoError);

  // Truncation (payload shorter than the header promises).
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(LoadGraphSnapshot(path).ok());

  // A file that was never a snapshot.
  {
    std::ofstream f(path, std::ios::binary);
    f << "cell,med_lon,med_lat\n1234,11.0,55.0\n";
  }
  auto not_snapshot = LoadGraphSnapshot(path);
  ASSERT_FALSE(not_snapshot.ok());

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(LoadGraphSnapshot(path).ok());
}

// ---------------------------------------------------------------------------
// Zero-copy mmap loads: a mapped graph must be indistinguishable from the
// copy-loaded one (views into the file vs heap vectors is an
// implementation detail the query surface never exposes).

TEST(SnapshotTest, MappedLoadIsBitIdentical) {
  for (const uint64_t seed : {3u, 7u}) {
    const Digraph g = MakeRandomGraph(seed, 90, 3);
    const CompactGraph frozen = g.Freeze();
    const std::string path = SnapshotPath("graph_mmap.snap");
    ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
    auto copied = LoadGraphSnapshot(path);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    auto mapped = LoadGraphSnapshotMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_FALSE(copied.value().is_mapped());
    EXPECT_TRUE(mapped.value().is_mapped());
    ExpectGraphsIdentical(frozen, mapped.value());
    ExpectGraphsIdentical(copied.value(), mapped.value());

    // Shortest paths over the mapped graph are bit-identical to the
    // frozen one (costs and node sequences).
    const std::vector<NodeId> ids = AllIds(g);
    Rng rng(seed + 200);
    for (int trial = 0; trial < 20; ++trial) {
      const NodeId s = ids[rng.UniformInt(0, ids.size() - 1)];
      const NodeId t = ids[rng.UniformInt(0, ids.size() - 1)];
      auto want = Dijkstra(frozen, s, t);
      auto got = Dijkstra(mapped.value(), s, t);
      ASSERT_EQ(want.ok(), got.ok());
      if (want.ok()) {
        EXPECT_EQ(want.value().cost, got.value().cost);
        EXPECT_EQ(want.value().nodes, got.value().nodes);
      }
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, MappedAttributeLessGraphRoundTrips) {
  const Digraph g = MakeRandomGraph(31, 50, 2);
  const CompactGraph topo = g.Freeze(/*keep_attrs=*/false);
  const std::string path = SnapshotPath("graph_mmap_topo.snap");
  ASSERT_TRUE(SaveGraphSnapshot(topo, path).ok());
  auto mapped = LoadGraphSnapshotMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().is_mapped());
  EXPECT_FALSE(mapped.value().has_attrs());
  ExpectGraphsIdentical(topo, mapped.value());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MappedGraphOutlivesTheFileEntry) {
  // POSIX semantics the serving path relies on: the mapping pins the file
  // contents, so an artifact can be replaced/unlinked under a live model.
  const CompactGraph frozen = MakeRandomGraph(37, 40, 2).Freeze();
  const std::string path = SnapshotPath("graph_mmap_unlink.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  auto mapped = LoadGraphSnapshotMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::remove(path.c_str());
  ExpectGraphsIdentical(frozen, mapped.value());
}

TEST(SnapshotTest, VersionSpoofedUnpaddedFileIsRejected) {
  // Only container version 3 is read. The header version is not covered by
  // the payload checksum, so a restamped file still "verifies": the header
  // check itself must refuse every other version, on both loaders and both
  // header readers, with an error that names the version.
  const CompactGraph frozen = MakeRandomGraph(41, 60, 2).Freeze();
  const std::string path = SnapshotPath("graph_spoof.snap");
  for (const uint32_t version : {0u, 1u, 2u, 4u}) {
    ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(sizeof(uint32_t));  // version field follows the magic
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    for (auto* load : {&LoadGraphSnapshot, &LoadGraphSnapshotMapped}) {
      auto loaded = (*load)(path);
      ASSERT_FALSE(loaded.ok()) << "version " << version;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(
                    "container version " + std::to_string(version)),
                std::string::npos)
          << loaded.status().ToString();
    }
    EXPECT_FALSE(InspectSnapshot(path).ok()) << "version " << version;
    EXPECT_FALSE(ProbeSnapshot(path).ok()) << "version " << version;
  }
  std::remove(path.c_str());
}

// File offset of the data of the array whose length prefix starts at
// `count_pos`: the writer pads the data to the next 64-byte file offset.
size_t ArrayDataOffset(size_t count_pos) {
  const size_t after_count = count_pos + sizeof(uint64_t);
  return (after_count + kSnapshotArrayAlignment - 1) /
         kSnapshotArrayAlignment * kSnapshotArrayAlignment;
}

TEST(SnapshotTest, NonFiniteWeightIsRejectedByBothLoaders) {
  // The copy load catches a damaged weight through the checksum; the
  // mapped load skips the checksum, so the structural validation must
  // refuse a NaN weight before it reaches the search heap.
  const CompactGraph frozen = MakeRandomGraph(53, 60, 2).Freeze();
  ASSERT_GT(frozen.num_edges(), 3u);
  const std::string path = SnapshotPath("graph_nan_weight.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  // Walk the section's leading arrays: node ids (u64), row offsets (u32),
  // edge targets (u32), then the weights (f64).
  const size_t n = frozen.num_nodes();
  const size_t m = frozen.num_edges();
  size_t pos = kSnapshotHeaderBytes;
  pos = ArrayDataOffset(pos) + n * sizeof(NodeId);
  pos = ArrayDataOffset(pos) + (n + 1) * sizeof(uint32_t);
  pos = ArrayDataOffset(pos) + m * sizeof(NodeIndex);
  const size_t third_weight = ArrayDataOffset(pos) + 2 * sizeof(double);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    double before = 0.0;
    f.seekg(static_cast<std::streamoff>(third_weight));
    f.read(reinterpret_cast<char*>(&before), sizeof(before));
    ASSERT_EQ(before, frozen.EdgeAttrsAt(2).weight);  // offsets are right
    const std::string splat(sizeof(double), static_cast<char>(0xFF));
    f.seekp(static_cast<std::streamoff>(third_weight));
    f.write(splat.data(), static_cast<std::streamsize>(splat.size()));
  }
  auto copied = LoadGraphSnapshot(path);
  ASSERT_FALSE(copied.ok());
  EXPECT_NE(copied.status().message().find("checksum"), std::string::npos)
      << copied.status().ToString();
  auto mapped = LoadGraphSnapshotMapped(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("edge weight"), std::string::npos)
      << mapped.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedFilesAreRejectedByTheMappedLoader) {
  const CompactGraph frozen = MakeRandomGraph(43, 40, 2).Freeze();
  const std::string path = SnapshotPath("graph_mmap_trunc.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(LoadGraphSnapshotMapped(path).ok());

  // Shorter than the fixed header: rejected before any field parse.
  std::filesystem::resize_file(path, 8);
  EXPECT_FALSE(LoadGraphSnapshotMapped(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadGraphSnapshotMapped(path).ok());
}

TEST(SnapshotTest, ProbeMatchesInspect) {
  // ProbeSnapshot reads header + stored trailer only (the cache-hit
  // fingerprint path); it must agree with the fully verifying
  // InspectSnapshot on a healthy file.
  const CompactGraph frozen = MakeRandomGraph(47, 50, 2).Freeze();
  const std::string path = SnapshotPath("graph_probe.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  auto inspected = InspectSnapshot(path);
  auto probed = ProbeSnapshot(path);
  ASSERT_TRUE(inspected.ok());
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_EQ(probed.value().kind, inspected.value().kind);
  EXPECT_EQ(probed.value().version, inspected.value().version);
  EXPECT_EQ(probed.value().payload_bytes, inspected.value().payload_bytes);
  EXPECT_EQ(probed.value().checksum, inspected.value().checksum);

  // Not-a-snapshot and missing files still fail loudly.
  {
    std::ofstream f(path, std::ios::binary);
    f << "cell,med_lon,med_lat\n1234,11.0,55.0\nmore,rows,here\n";
  }
  EXPECT_FALSE(ProbeSnapshot(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(ProbeSnapshot(path).ok());
}

// IndexOf must stay exact on adversarial id distributions: a dense cluster
// plus a far outlier, with runs of consecutive and evenly strided ids.
TEST(CompactGraphTest, IndexOfHandlesSkewedIdDistributions) {
  Digraph g;
  std::vector<NodeId> ids;
  for (uint64_t i = 0; i < 200; ++i) ids.push_back(1000 + i);
  ids.push_back(uint64_t{1} << 62);  // outlier stretches the id range
  for (uint64_t i = 1; i <= 50; ++i) {
    ids.push_back((uint64_t{1} << 62) + 7 * i);
  }
  for (const NodeId id : ids) g.AddNode(id);
  const CompactGraph frozen = g.Freeze();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(frozen.num_nodes(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(frozen.IndexOf(ids[i]), static_cast<NodeIndex>(i)) << ids[i];
  }
  // Misses on every side and inside every gap flavor.
  EXPECT_EQ(frozen.IndexOf(0), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf(999), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf(1200), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf(uint64_t{1} << 40), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf((uint64_t{1} << 62) + 3), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf(UINT64_MAX), kInvalidNodeIndex);
}

// A moved-from graph must behave as an empty graph, not a half-alive one
// (spans are trivially copyable, so the default move would have kept the
// views while releasing the lookup table IndexOf reads).
TEST(CompactGraphTest, MovedFromGraphIsEmpty) {
  CompactGraph a = MakeRandomGraph(53, 30, 2).Freeze();
  const NodeId probe = a.IdOf(0);
  const CompactGraph b = std::move(a);
  EXPECT_EQ(a.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.num_edges(), 0u);
  EXPECT_FALSE(a.HasNode(probe));
  EXPECT_EQ(a.IndexOf(probe), kInvalidNodeIndex);
  EXPECT_EQ(b.IndexOf(probe), 0u);
  EXPECT_EQ(a.weight_range().max, 0.0);
  EXPECT_GT(b.weight_range().max, 0.0);

  CompactGraph c;
  c = std::move(a);  // moving an empty graph is fine too
  EXPECT_EQ(c.num_nodes(), 0u);
}

// A single-node graph gets the smallest table (two slots): hits, and
// misses that hash to either slot.
TEST(CompactGraphTest, IndexOfSingleNode) {
  Digraph g;
  g.AddNode(42);
  const CompactGraph frozen = g.Freeze();
  EXPECT_EQ(frozen.IndexOf(42), 0u);
  EXPECT_EQ(frozen.IndexOf(41), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf(43), kInvalidNodeIndex);
}

// The inverse of the id hash's multiplier mod 2^64 (Newton's iteration
// doubles the correct low bits each step, from 3 for any odd number).
constexpr uint64_t InverseOfOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

// Ids crafted against the id hash: a snapshot may hold any strictly
// ascending ids, and a served `load=` spec can name one. In the first set
// every id hashes to one slot (one probe run as long as the graph); in the
// second each id has its own home slot, but they are consecutive (one
// unbroken run of full slots, which a miss must not walk). Built,
// copy-loaded and mapped, every hit and miss must answer exactly, and in
// about the time the same work takes on ids spaced like cell ids: a
// quadratic build or a linear miss scan of 2^18 ids is thousands of times
// slower, so the bound holds under sanitizers and a loaded machine alike.
TEST(CompactGraphTest, IndexOfStaysFastOnIdsCraftedToCollide) {
  constexpr uint64_t kInverse = InverseOfOdd(0x9E3779B97F4A7C15ULL);
  static_assert(kInverse * 0x9E3779B97F4A7C15ULL == 1);
  constexpr uint64_t kN = uint64_t{1} << 18;
  constexpr int kShift = 64 - 19;  // a 2^19-slot table for 2^18 nodes
  constexpr uint64_t kBase = uint64_t{5} << 60;
  // Seconds to build, save and load a graph of ids[k] = id(k) and to look
  // up every id and every miss(k) (never an id) on all three copies.
  auto seconds = [&](auto id, auto miss) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<NodeId> ids;
    std::vector<NodeId> misses;
    Digraph g;
    for (uint64_t k = 0; k < kN; ++k) {
      ids.push_back(id(k));
      misses.push_back(miss(k));
      g.AddNode(ids.back());
    }
    std::sort(ids.begin(), ids.end());
    const CompactGraph owned = g.Freeze();
    const std::string path = SnapshotPath("graph_crafted_ids.snap");
    EXPECT_TRUE(SaveGraphSnapshot(owned, path).ok());
    const CompactGraph copied = LoadGraphSnapshot(path).MoveValue();
    const CompactGraph mapped = LoadGraphSnapshotMapped(path).MoveValue();
    std::remove(path.c_str());
    for (const CompactGraph* c : {&owned, &copied, &mapped}) {
      EXPECT_EQ(c->num_nodes(), kN);
      size_t wrong = 0;
      for (uint64_t k = 0; k < kN && wrong < 10; ++k) {
        const bool hit_ok = c->IndexOf(ids[k]) == static_cast<NodeIndex>(k);
        const bool miss_ok = c->IndexOf(misses[k]) == kInvalidNodeIndex;
        if (!hit_ok || !miss_ok) {
          ADD_FAILURE() << "id " << ids[k] << " or miss " << misses[k];
          ++wrong;
        }
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double spaced = seconds([&](uint64_t k) { return kBase + 3 * k; },
                                [&](uint64_t k) { return kBase + 3 * k + 1; });
  for (const uint64_t stride : {uint64_t{1}, uint64_t{1} << kShift}) {
    // A miss hashes to the same home slot as the id beside it.
    const double crafted =
        seconds([&](uint64_t k) { return kInverse * (kBase + k * stride); },
                [&](uint64_t k) {
                  return kInverse * (kBase + k * stride + kN);
                });
    EXPECT_LT(crafted, 10 * spaced + 0.5) << "stride " << stride;
  }
}

// The id lookup over a HABIT graph's real packed cell ids (res<<60 | i<<30
// | j: hex rows are runs of consecutive ids), on owned, copy-loaded and
// mapped graphs. Every node id, every cell within three rings of a node
// (hits and misses), the same axial cells at the neighbouring
// resolutions, and the sentinel ids must answer as std::lower_bound over
// the sorted id column does.
TEST(CompactGraphTest, IndexOfMatchesLowerBoundOnBuiltCellGraphs) {
  eval::ExperimentOptions options;
  options.scale = 0.2;
  auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
  core::HabitConfig config;
  config.resolution = 10;
  const CompactGraph owned =
      core::BuildGraphFromTrips(exp.train_trips, config).MoveValue().Freeze();
  ASSERT_GT(owned.num_nodes(), 1000u);
  const std::string path = SnapshotPath("graph_index_of.snap");
  ASSERT_TRUE(SaveGraphSnapshot(owned, path).ok());
  const CompactGraph copied = LoadGraphSnapshot(path).MoveValue();
  const CompactGraph mapped = LoadGraphSnapshotMapped(path).MoveValue();
  ASSERT_TRUE(mapped.is_mapped());

  std::vector<NodeId> ids;
  for (NodeIndex i = 0; i < owned.num_nodes(); ++i) {
    ids.push_back(owned.IdOf(i));
  }
  std::vector<NodeId> queries = {0, 1, UINT64_MAX, hex::kInvalidCell,
                                 ids.front() - 1, ids.back() + 1};
  for (const NodeId id : ids) {
    for (const hex::CellId c : hex::GridDisk(id, 3)) queries.push_back(c);
    const hex::Axial axial = hex::CellToAxial(id);
    queries.push_back(hex::AxialToCell(config.resolution - 1, axial));
    queries.push_back(hex::AxialToCell(config.resolution + 1, axial));
  }
  size_t hits = 0;
  std::vector<NodeIndex> want(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), queries[q]);
    want[q] = it != ids.end() && *it == queries[q]
                  ? static_cast<NodeIndex>(it - ids.begin())
                  : kInvalidNodeIndex;
    hits += want[q] != kInvalidNodeIndex ? 1 : 0;
  }
  EXPECT_GT(hits, ids.size());              // ring cells that are nodes
  EXPECT_GT(queries.size() - hits, hits);  // and plenty of misses
  for (const CompactGraph* g : {&owned, &copied, &mapped}) {
    size_t wrong = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (g->IndexOf(queries[q]) != want[q]) {
        ADD_FAILURE() << "IndexOf(" << queries[q] << ") on "
                      << (g->is_mapped() ? "mapped" : "owned/copied");
        if (++wrong == 10) break;
      }
    }
  }
  EXPECT_EQ(copied.SizeBytes(), owned.SizeBytes());
  EXPECT_EQ(mapped.SizeBytes(), owned.SizeBytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace habit::graph
