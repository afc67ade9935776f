// Seeded mutation fuzz of the snapshot reader. Starting from small valid
// snapshots (a HABIT model, a HABIT model with ALT landmark columns, and a
// bare graph), every iteration applies one deterministic mutation drawn
// from core/rng.h — bit flips, 8-byte splats, truncations, rewrites of the
// header's version, kind and length fields — and loads the result through
// every HABIT and graph loader, copying and mapped. Each load must either
// return a Status or produce a model that answers every gap of a fixed
// batch (one result per gap, ok or not). Each mutated file is also tried
// with its checksum re-stamped, so the copying loaders' structural
// validation is exercised too, not just their checksum. Runs in the
// sanitizer CI job like every other suite, where "no crash" includes no
// ASan or UBSan report.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/rng.h"
#include "graph/shortest_path.h"
#include "graph/snapshot.h"
#include "habit/serialize.h"

namespace habit {
namespace {

// Two dense lanes (lng 11.0 and 11.3) over ~40 km: a connected r=9 graph
// of a few hundred nodes, small enough to load thousands of times.
std::vector<ais::Trip> LaneTrips() {
  std::vector<ais::Trip> trips;
  int64_t next_id = 1;
  for (const double lng : {11.0, 11.3}) {
    for (int t = 0; t < 6; ++t) {
      ais::Trip trip;
      trip.trip_id = next_id++;
      trip.mmsi = next_id;
      for (int i = 0; i < 120; ++i) {
        ais::AisRecord r;
        r.mmsi = trip.mmsi;
        r.ts = 1000000 + i * 60;
        r.pos = {55.0 + i * 0.003, lng + 0.0004 * (t % 3)};
        r.sog = 12.0;
        trip.points.push_back(r);
      }
      trips.push_back(trip);
    }
  }
  return trips;
}

// Eight fixed gaps: on-lane short and long, reversed, cross-lane, one
// endpoint far off the graph, and a same-cell gap.
std::vector<api::ImputeRequest> FixedGaps() {
  const geo::LatLng ends[8][2] = {
      {{55.06, 11.0}, {55.075, 11.0}}, {{55.02, 11.0}, {55.30, 11.0}},
      {{55.30, 11.0}, {55.05, 11.0}},  {{55.10, 11.3}, {55.20, 11.3}},
      {{55.10, 11.0}, {55.20, 11.3}},  {{56.00, 12.0}, {55.10, 11.0}},
      {{55.10, 11.0}, {55.1001, 11.0}}, {{55.01, 11.3}, {55.33, 11.3}},
  };
  std::vector<api::ImputeRequest> gaps;
  for (const auto& [start, end] : ends) {
    api::ImputeRequest req;
    req.gap_start = start;
    req.gap_end = end;
    req.t_start = 1000000;
    req.t_end = 1007200;
    gaps.push_back(req);
  }
  return gaps;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  if (at + sizeof(T) <= bytes->size()) {
    std::memcpy(bytes->data() + at, &value, sizeof(T));
  }
}

// Header field offsets: magic, version, kind, payload length.
constexpr size_t kVersionAt = 4;
constexpr size_t kKindAt = 8;
constexpr size_t kLengthAt = 12;

// Applies one seeded mutation to a snapshot's bytes.
void Mutate(Rng& rng, std::string* bytes) {
  const auto offset = [&](size_t width) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes->size() - width)));
  };
  switch (rng.UniformInt(0, 3)) {
    case 0: {  // a few bit flips anywhere
      const int flips = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < flips; ++i) {
        (*bytes)[offset(1)] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
      }
      break;
    }
    case 1: {  // an 8-byte splat: all-ones (NaN), zero, +inf, -1.0, random
      const uint64_t patterns[] = {~0ULL, 0ULL, 0x7FF0000000000000ULL,
                                   0xBFF0000000000000ULL,
                                   static_cast<uint64_t>(rng.engine()())};
      Poke(bytes, offset(8), patterns[rng.UniformInt(0, 4)]);
      break;
    }
    case 2: {  // truncation, half the time with a consistent length field
      const size_t keep = offset(1);
      bytes->resize(keep);
      if (rng.Bernoulli(0.5) &&
          keep >= graph::kSnapshotHeaderBytes + sizeof(uint64_t)) {
        Poke<uint64_t>(bytes, kLengthAt,
                       keep - graph::kSnapshotHeaderBytes - sizeof(uint64_t));
      }
      break;
    }
    default: {  // a header field rewrite
      switch (rng.UniformInt(0, 2)) {
        case 0: {
          const uint32_t versions[] = {0, 1, 2, 4,
                                       static_cast<uint32_t>(rng.engine()())};
          Poke(bytes, kVersionAt, versions[rng.UniformInt(0, 4)]);
          break;
        }
        case 1:
          Poke(bytes, kKindAt, static_cast<uint32_t>(rng.UniformInt(0, 5)));
          break;
        default: {
          uint64_t length = 0;
          std::memcpy(&length, bytes->data() + kLengthAt, sizeof(length));
          Poke<uint64_t>(bytes, kLengthAt,
                         rng.Bernoulli(0.5)
                             ? length + rng.UniformInt(-64, 64)
                             : static_cast<uint64_t>(rng.engine()()));
          break;
        }
      }
      break;
    }
  }
}

// Rewrites the trailer with the checksum of the (mutated) payload, so the
// copying loaders get past their hash and reach the structural checks.
void Restamp(std::string* bytes) {
  constexpr size_t kTrailer = sizeof(uint64_t);
  if (bytes->size() < graph::kSnapshotHeaderBytes + kTrailer) return;
  const size_t payload = bytes->size() - graph::kSnapshotHeaderBytes - kTrailer;
  Poke(bytes, bytes->size() - kTrailer,
       graph::Fnv1a64(bytes->data() + graph::kSnapshotHeaderBytes, payload));
}

struct Outcomes {
  int refused = 0;
  int served = 0;
};

// Loads `path` through every HABIT and graph loader. A load either fails
// with a Status or yields a model that answers every gap.
void LoadEverywhere(const std::string& path,
                    const std::vector<api::ImputeRequest>& gaps,
                    Outcomes* outcomes) {
  for (const char* serving : {"", ",map=1", ",alt=1", ",alt=1,map=1"}) {
    auto model = api::MakeModel("habit:load=" + path + serving, {});
    if (!model.ok()) {
      ++outcomes->refused;
      continue;
    }
    ++outcomes->served;
    const auto answers = model.value()->ImputeBatch(gaps);
    ASSERT_EQ(answers.size(), gaps.size()) << path << serving;
  }
  for (auto* load :
       {&graph::LoadGraphSnapshot, &graph::LoadGraphSnapshotMapped}) {
    auto loaded = (*load)(path);
    if (!loaded.ok()) {
      ++outcomes->refused;
      continue;
    }
    ++outcomes->served;
    const graph::CompactGraph& g = loaded.value();
    if (g.num_nodes() == 0) continue;
    const graph::NodeId first = g.IdOf(0);
    const graph::NodeId last = g.IdOf(g.num_nodes() - 1);
    (void)graph::Dijkstra(g, first, last);
    (void)graph::DijkstraAlt(g, first, last);
  }
}

TEST(SnapshotFuzzTest, MutatedSnapshotsFailCleanlyOrServeEveryGap) {
  const auto trips = LaneTrips();
  const std::string model_path = TempPath("snapshot_fuzz_model.snap");
  const std::string alt_path = TempPath("snapshot_fuzz_alt.snap");
  const std::string graph_path = TempPath("snapshot_fuzz_graph.snap");
  const std::string mutant_path = TempPath("snapshot_fuzz_mutant.snap");
  ASSERT_TRUE(api::MakeModel("habit:r=9,save=" + model_path, trips).ok());
  ASSERT_TRUE(
      api::MakeModel("habit:r=9,landmarks=4,save=" + alt_path, trips).ok());
  {
    // The same model's graph section alone, as a kCompactGraph file.
    auto framework = core::LoadModelSnapshot(model_path);
    ASSERT_TRUE(framework.ok()) << framework.status().ToString();
    ASSERT_TRUE(
        graph::SaveGraphSnapshot(framework.value()->graph(), graph_path).ok());
  }
  const std::vector<api::ImputeRequest> gaps = FixedGaps();

  // The unmutated bases load through the loaders of their own kind.
  Outcomes model_base;
  LoadEverywhere(model_path, gaps, &model_base);
  EXPECT_EQ(model_base.served, 4);
  Outcomes graph_base;
  LoadEverywhere(graph_path, gaps, &graph_base);
  EXPECT_EQ(graph_base.served, 2);

  constexpr int kMutationsPerBase = 150;
  Outcomes outcomes;
  Rng rng(20261019);
  for (const std::string& base : {model_path, alt_path, graph_path}) {
    const std::string pristine = ReadFile(base);
    ASSERT_GT(pristine.size(), graph::kSnapshotHeaderBytes);
    for (int i = 0; i < kMutationsPerBase; ++i) {
      std::string bytes = pristine;
      Mutate(rng, &bytes);
      WriteFile(mutant_path, bytes);
      LoadEverywhere(mutant_path, gaps, &outcomes);
      Restamp(&bytes);
      WriteFile(mutant_path, bytes);
      LoadEverywhere(mutant_path, gaps, &outcomes);
      if (HasFatalFailure()) return;
    }
  }
  // Both outcomes occur: the mutations reach past the header checks.
  std::printf("mutated loads: %d refused, %d served\n", outcomes.refused,
              outcomes.served);
  EXPECT_GT(outcomes.refused, 0);
  EXPECT_GT(outcomes.served, 0);
  std::remove(model_path.c_str());
  std::remove(alt_path.c_str());
  std::remove(graph_path.c_str());
  std::remove(mutant_path.c_str());
}

}  // namespace
}  // namespace habit
