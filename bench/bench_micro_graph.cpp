// Microbenchmarks for the graph substrate: A* / Dijkstra over lane-like
// hexgrid graphs, KD-tree queries (the inner loops of HABIT and GTI
// imputation), the hashed id->index lookup, and edge iteration.
//
// Unlike the other micro benches this one defines its own main: after the
// Google Benchmark suite it emits BENCH_METRIC lines (folded by
// bench/run_all.sh) comparing the hashed CompactGraph::IndexOf against a
// plain binary search over the id column, and the templated ForEachEdge
// visitor against a std::function-wrapped one.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "eval/harness.h"
#include "graph/digraph.h"
#include "graph/kdtree.h"
#include "graph/shortest_path.h"
#include "habit/graph_builder.h"
#include "hexgrid/hexgrid.h"

namespace {

using namespace habit;

// A long corridor graph of hexgrid cells (both directions), mimicking the
// transition graphs HABIT builds.
graph::Digraph MakeCorridorGraph(int length_cells, hex::CellId* start,
                                 hex::CellId* end) {
  graph::Digraph g;
  const hex::CellId a = hex::LatLngToCell({55.0, 11.0}, 9);
  hex::CellId prev = a;
  hex::CellId cur = a;
  for (int i = 0; i < length_cells; ++i) {
    const auto nbrs = hex::Neighbors(cur);
    const hex::CellId next = nbrs[i % 2];  // zig-zag northeast
    g.AddEdge(cur, next, {.weight = 1.1, .transitions = 5});
    g.AddEdge(next, cur, {.weight = 1.1, .transitions = 5});
    prev = cur;
    cur = next;
  }
  (void)prev;
  *start = a;
  *end = cur;
  return g;
}

void BM_AStarCorridor(benchmark::State& state) {
  hex::CellId start, end;
  const graph::CompactGraph g =
      MakeCorridorGraph(static_cast<int>(state.range(0)), &start, &end)
          .Freeze();
  const auto h = [end](graph::NodeId n) {
    auto d = hex::GridDistance(static_cast<hex::CellId>(n), end);
    return d.ok() ? static_cast<double>(d.value()) : 0.0;
  };
  graph::SearchScratch scratch;
  for (auto _ : state) {
    auto result = graph::AStar(g, start, end, h, &scratch);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AStarCorridor)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DijkstraCorridor(benchmark::State& state) {
  hex::CellId start, end;
  const graph::CompactGraph g =
      MakeCorridorGraph(static_cast<int>(state.range(0)), &start, &end)
          .Freeze();
  graph::SearchScratch scratch;
  for (auto _ : state) {
    auto result = graph::Dijkstra(g, start, end, &scratch);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DijkstraCorridor)->Arg(1000);

void BM_FreezeCorridor(benchmark::State& state) {
  hex::CellId start, end;
  const graph::Digraph g =
      MakeCorridorGraph(static_cast<int>(state.range(0)), &start, &end);
  for (auto _ : state) {
    auto frozen = g.Freeze();
    benchmark::DoNotOptimize(frozen.num_edges());
  }
}
BENCHMARK(BM_FreezeCorridor)->Arg(1000);

// An id universe + query mix for the IndexOf benchmarks.
struct IndexOfFixture {
  graph::CompactGraph g;
  std::vector<graph::NodeId> sorted_ids;
  std::vector<graph::NodeId> queries;
};

void FillSortedIds(IndexOfFixture* fx) {
  fx->sorted_ids.reserve(fx->g.num_nodes());
  for (graph::NodeIndex i = 0; i < fx->g.num_nodes(); ++i) {
    fx->sorted_ids.push_back(fx->g.IdOf(i));
  }
}

// Synthetic: a zig-zag corridor of cells queried with ~2/3 present ids and
// ~1/3 `id ^ 0x3` misses. Its ids are sparse along every hex row, so no
// part of the id range is crowded.
IndexOfFixture MakeIndexOfFixture(int num_cells) {
  IndexOfFixture fx;
  hex::CellId start, end;
  fx.g = MakeCorridorGraph(num_cells, &start, &end).Freeze();
  FillSortedIds(&fx);
  Rng rng(11);
  fx.queries.reserve(4096);
  for (int q = 0; q < 4096; ++q) {
    const graph::NodeId id =
        fx.sorted_ids[rng.UniformInt(0, fx.sorted_ids.size() - 1)];
    // Perturb a third of the probes off the graph.
    fx.queries.push_back(q % 3 == 0 ? id ^ 0x3 : id);
  }
  return fx;
}

// Realistic: a HABIT graph built from the KIEL training trips at r=10
// (tens of thousands of nodes, whole hex rows of consecutive ids), queried
// with what the snap asks for — the cells of rings 0..12 around sampled
// trip reports, hits and misses as they come.
IndexOfFixture MakeBuiltIndexOfFixture() {
  IndexOfFixture fx;
  auto exp = eval::PrepareExperiment("KIEL", {}).MoveValue();
  core::HabitConfig config;
  config.resolution = 10;
  fx.g = core::BuildGraphFromTrips(exp.train_trips, config)
             .MoveValue()
             .Freeze();
  FillSortedIds(&fx);
  Rng rng(13);
  for (int sample = 0; sample < 64; ++sample) {
    const ais::Trip& trip =
        exp.test_trips[rng.UniformInt(0, exp.test_trips.size() - 1)];
    const geo::LatLng p =
        trip.points[rng.UniformInt(0, trip.points.size() - 1)].pos;
    for (const hex::CellId c :
         hex::GridDisk(hex::LatLngToCell(p, config.resolution), 12)) {
      fx.queries.push_back(c);
    }
  }
  return fx;
}

// Baseline: std::lower_bound over the sorted id column.
graph::NodeIndex BinarySearchIndexOf(const std::vector<graph::NodeId>& ids,
                                     graph::NodeId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return graph::kInvalidNodeIndex;
  return static_cast<graph::NodeIndex>(it - ids.begin());
}

void BM_IndexOfTable(benchmark::State& state) {
  const IndexOfFixture fx = MakeIndexOfFixture(static_cast<int>(state.range(0)));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.g.IndexOf(fx.queries[q]));
    q = (q + 1) % fx.queries.size();
  }
}
BENCHMARK(BM_IndexOfTable)->Arg(1000)->Arg(50000);

void BM_IndexOfBinarySearch(benchmark::State& state) {
  const IndexOfFixture fx = MakeIndexOfFixture(static_cast<int>(state.range(0)));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinarySearchIndexOf(fx.sorted_ids, fx.queries[q]));
    q = (q + 1) % fx.queries.size();
  }
}
BENCHMARK(BM_IndexOfBinarySearch)->Arg(1000)->Arg(50000);

void BM_ForEachEdgeTemplated(benchmark::State& state) {
  hex::CellId start, end;
  const graph::CompactGraph g =
      MakeCorridorGraph(2000, &start, &end).Freeze();
  for (auto _ : state) {
    double sum = 0;
    g.ForEachEdge([&](graph::NodeId, graph::NodeId,
                      const graph::EdgeAttrs& attrs) { sum += attrs.weight; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ForEachEdgeTemplated);

void BM_ForEachEdgeStdFunction(benchmark::State& state) {
  hex::CellId start, end;
  const graph::CompactGraph g =
      MakeCorridorGraph(2000, &start, &end).Freeze();
  for (auto _ : state) {
    double sum = 0;
    // The pre-PR iteration shape: the visitor type-erased behind
    // std::function, one indirect call per edge.
    const std::function<void(graph::NodeId, graph::NodeId,
                             const graph::EdgeAttrs&)>
        visit = [&](graph::NodeId, graph::NodeId,
                    const graph::EdgeAttrs& attrs) { sum += attrs.weight; };
    g.ForEachEdge(visit);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ForEachEdgeStdFunction);

void BM_KdTreeBuild(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::pair<geo::LatLng, uint64_t>> points;
  for (int64_t i = 0; i < state.range(0); ++i) {
    points.push_back(
        {{rng.Uniform(54, 58), rng.Uniform(9, 13)}, static_cast<uint64_t>(i)});
  }
  for (auto _ : state) {
    graph::KdTree tree;
    tree.Build(points);
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_KdTreeBuild)->Arg(10000)->Arg(100000);

void BM_KdTreeNearest(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::pair<geo::LatLng, uint64_t>> points;
  for (int64_t i = 0; i < 100000; ++i) {
    points.push_back(
        {{rng.Uniform(54, 58), rng.Uniform(9, 13)}, static_cast<uint64_t>(i)});
  }
  graph::KdTree tree;
  tree.Build(points);
  for (auto _ : state) {
    uint64_t id;
    tree.Nearest({rng.Uniform(54, 58), rng.Uniform(9, 13)}, &id);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_KdTreeNearest);

void BM_KdTreeRadius(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::pair<geo::LatLng, uint64_t>> points;
  for (int64_t i = 0; i < 100000; ++i) {
    points.push_back(
        {{rng.Uniform(54, 58), rng.Uniform(9, 13)}, static_cast<uint64_t>(i)});
  }
  graph::KdTree tree;
  tree.Build(points);
  for (auto _ : state) {
    auto hits =
        tree.WithinRadius({rng.Uniform(54, 58), rng.Uniform(9, 13)}, 2000.0);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_KdTreeRadius);

// ---------------------------------------------------------------------------
// BENCH_METRIC rows: manual head-to-head timings the trajectory tooling
// tracks (Google Benchmark's own numbers stay in its human output).

double MeanNsIndexOfTable(const IndexOfFixture& fx, int rounds) {
  uint64_t sink = 0;
  Stopwatch sw;
  for (int r = 0; r < rounds; ++r) {
    for (const graph::NodeId id : fx.queries) sink += fx.g.IndexOf(id);
  }
  const double ns = sw.ElapsedSeconds() * 1e9;
  benchmark::DoNotOptimize(sink);
  return ns / (static_cast<double>(rounds) * fx.queries.size());
}

double MeanNsIndexOfBinary(const IndexOfFixture& fx, int rounds) {
  uint64_t sink = 0;
  Stopwatch sw;
  for (int r = 0; r < rounds; ++r) {
    for (const graph::NodeId id : fx.queries) {
      sink += BinarySearchIndexOf(fx.sorted_ids, id);
    }
  }
  const double ns = sw.ElapsedSeconds() * 1e9;
  benchmark::DoNotOptimize(sink);
  return ns / (static_cast<double>(rounds) * fx.queries.size());
}

struct IndexOfTiming {
  size_t nodes = 0;
  size_t queries = 0;
  double table_ns = 0;
  double binary_ns = 0;
};

IndexOfTiming TimeIndexOf(const IndexOfFixture& fx, int rounds) {
  // Warm both paths once, then measure.
  MeanNsIndexOfTable(fx, 1);
  MeanNsIndexOfBinary(fx, 1);
  return {fx.g.num_nodes(), fx.queries.size(), MeanNsIndexOfTable(fx, rounds),
          MeanNsIndexOfBinary(fx, rounds)};
}

void PrintIndexOfMetric() {
  const IndexOfTiming corridor = TimeIndexOf(MakeIndexOfFixture(50000), 50);
  const IndexOfTiming built = TimeIndexOf(MakeBuiltIndexOfFixture(), 10);
  const auto speedup = [](const IndexOfTiming& t) {
    return t.table_ns > 0 ? t.binary_ns / t.table_ns : 0.0;
  };
  std::printf("BENCH_METRIC {\"metric\":\"index_of_lookup\",\"corridor\":{\"nodes\":%zu,\"queries\":%zu,\"table_ns\":%.2f,\"binary_search_ns\":%.2f,\"speedup\":%.2f},\"kiel_r10\":{\"nodes\":%zu,\"queries\":%zu,\"table_ns\":%.2f,\"binary_search_ns\":%.2f,\"speedup\":%.2f}}\n",
              corridor.nodes, corridor.queries, corridor.table_ns,
              corridor.binary_ns, speedup(corridor), built.nodes,
              built.queries, built.table_ns, built.binary_ns, speedup(built));
}

void PrintForEachEdgeMetric() {
  hex::CellId start, end;
  const graph::CompactGraph g =
      MakeCorridorGraph(20000, &start, &end).Freeze();
  const int rounds = 200;
  double sum_templated = 0;
  Stopwatch sw_templated;
  for (int r = 0; r < rounds; ++r) {
    g.ForEachEdge([&](graph::NodeId, graph::NodeId,
                      const graph::EdgeAttrs& attrs) {
      sum_templated += attrs.weight;
    });
  }
  const double templated_s = sw_templated.ElapsedSeconds();

  double sum_erased = 0;
  const std::function<void(graph::NodeId, graph::NodeId,
                           const graph::EdgeAttrs&)>
      visit = [&](graph::NodeId, graph::NodeId,
                  const graph::EdgeAttrs& attrs) { sum_erased += attrs.weight; };
  Stopwatch sw_erased;
  for (int r = 0; r < rounds; ++r) g.ForEachEdge(visit);
  const double erased_s = sw_erased.ElapsedSeconds();

  benchmark::DoNotOptimize(sum_templated);
  benchmark::DoNotOptimize(sum_erased);
  const double per_edge = static_cast<double>(rounds) * g.num_edges();
  std::printf("BENCH_METRIC {\"metric\":\"foreach_edge_visit\",\"edges\":%zu,"
              "\"templated_ns\":%.2f,\"std_function_ns\":%.2f,"
              "\"speedup\":%.2f}\n",
              g.num_edges(), templated_s * 1e9 / per_edge,
              erased_s * 1e9 / per_edge,
              templated_s > 0 ? erased_s / templated_s : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  PrintIndexOfMetric();
  PrintForEachEdgeMetric();
  return 0;
}
