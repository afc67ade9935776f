// CSR equivalence suite: the frozen CompactGraph must agree with the
// mutable Digraph it was frozen from — per-node/per-edge attributes, degree
// arrays, shortest paths against a test-local reference Dijkstra, component
// structure, and size accounting — and search scratch reuse across many
// queries must never leak state between generations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/rng.h"
#include "graph/digraph.h"
#include "graph/shortest_path.h"
#include "graph/snapshot.h"

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

// The bucketed two-level IndexOf must stay exact on adversarial id
// distributions: a dense cluster plus a far outlier collapses almost every
// id into one interpolation bucket (the bisection fallback path).
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
// views while nulling the bucket array IndexOf dereferences).
TEST(CompactGraphTest, MovedFromGraphIsEmpty) {
  CompactGraph a = MakeRandomGraph(53, 30, 2).Freeze();
  const NodeId probe = a.IdOf(0);
  const CompactGraph b = std::move(a);
  EXPECT_EQ(a.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.num_edges(), 0u);
  EXPECT_FALSE(a.HasNode(probe));
  EXPECT_EQ(a.IndexOf(probe), kInvalidNodeIndex);
  EXPECT_EQ(b.IndexOf(probe), 0u);

  CompactGraph c;
  c = std::move(a);  // moving an empty graph is fine too
  EXPECT_EQ(c.num_nodes(), 0u);
}

// A single-node graph (id range zero) must not divide by zero or probe
// out of bucket bounds.
TEST(CompactGraphTest, IndexOfSingleNode) {
  Digraph g;
  g.AddNode(42);
  const CompactGraph frozen = g.Freeze();
  EXPECT_EQ(frozen.IndexOf(42), 0u);
  EXPECT_EQ(frozen.IndexOf(41), kInvalidNodeIndex);
  EXPECT_EQ(frozen.IndexOf(43), kInvalidNodeIndex);
}

}  // namespace
}  // namespace habit::graph
