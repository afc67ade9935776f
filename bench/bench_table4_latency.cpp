// Table 4 — Average and maximum query latency (seconds) for different
// configurations of HABIT (r, t) and GTI (rm, rd) on KIEL and SAR.
//
// Paper shape: HABIT answers in tens of milliseconds (rising with r), with
// sub-second maxima; GTI is consistently slower (hundreds of ms to
// seconds), worst on SAR.
//
// Also measures ImputeBatch scaling over the `threads` registry parameter
// (workers claim gaps from one cursor, each with its own flat search
// scratch against the shared frozen graph): median of warmed passes.
//
// Machine-readable results are emitted as `BENCH_METRIC {json}` lines,
// which bench/run_all.sh folds into its per-bench JSON output so latency
// trajectories can be diffed across runs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "eval/harness.h"
#include "eval/report.h"
#include "geo/latlng.h"
#include "sim/gaps.h"

namespace {

void EmitLatencyMetric(const char* dataset, const std::string& spec,
                       const habit::eval::MethodReport& report) {
  std::printf(
      "BENCH_METRIC {\"metric\":\"query_latency\",\"dataset\":\"%s\","
      "\"spec\":\"%s\",\"mean_s\":%.6f,\"max_s\":%.6f}\n",
      dataset, spec.c_str(), report.latency.Mean(), report.latency.Max());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

// Gap-length buckets (haversine between the gap endpoints, km). The last
// edge is an open upper bound; gaps under the first edge are not timed.
constexpr double kBucketEdgesKm[] = {5, 10, 20, 50, 1e9};
constexpr size_t kNumBuckets = std::size(kBucketEdgesKm) - 1;
// Gaps timed per bucket: enough that a bucket's p50 is stable from run to
// run, so the alt=0 / alt=1 ratio can be held against a threshold.
constexpr size_t kGapsPerBucket = 40;
// Gap durations placed on each test trip: 15 min to 3 h spans every
// bucket at KIEL's 12-20 kn passenger speeds.
constexpr int64_t kGapSecondsList[] = {900, 1800, 3600, 7200, 10800};

size_t BucketOf(double km) {
  size_t b = 0;
  while (b + 1 < kNumBuckets && km >= kBucketEdgesKm[b + 1]) ++b;
  return b;
}

std::string BucketLabel(size_t b) {
  if (b + 2 == std::size(kBucketEdgesKm)) {
    return std::to_string(static_cast<int>(kBucketEdgesKm[b])) + "+";
  }
  return std::to_string(static_cast<int>(kBucketEdgesKm[b])) + "-" +
         std::to_string(static_cast<int>(kBucketEdgesKm[b + 1]));
}

// Per-gap-distance latency of ALT landmark search vs the zero-heuristic
// baseline, over the same loaded snapshot. The two modes return identical
// imputations (the ALT replay reproduces the baseline byte for byte, see
// graph/landmarks.h); this section measures how much search effort the
// landmark corridor removes, bucketed by gap length — the paper's
// long-gap regime is where the heuristic has room to pay off.
void RunLongGapSection() {
  using namespace habit;
  eval::ExperimentOptions options;
  options.scale = 1.0;
  options.seed = 42;
  options.sampler.report_interval_s = 10.0;
  auto prepared = eval::PrepareExperiment("KIEL", options);
  if (!prepared.ok()) {
    std::printf("\nlong-gap section skipped: %s\n",
                prepared.status().ToString().c_str());
    return;
  }
  const eval::Experiment& exp = prepared.value();
  // Seeded gaps of several durations on every test trip, kept while their
  // length bucket is short of kGapsPerBucket, until every bucket is full
  // (or the trips run out of placements).
  std::vector<api::ImputeRequest> requests;
  std::vector<size_t> bucket_count(kNumBuckets, 0);
  Rng rng(42);
  for (int pass = 0; pass < 200 && requests.size() <
                                        kGapsPerBucket * kNumBuckets; ++pass) {
    for (const ais::Trip& trip : exp.test_trips) {
      for (const int64_t seconds : kGapSecondsList) {
        sim::GapOptions gap_options;
        gap_options.gap_seconds = seconds;
        const auto gap = sim::InjectGap(trip, gap_options, &rng);
        if (!gap) continue;
        const double km = geo::HaversineMeters(gap->gap_start.pos,
                                               gap->gap_end.pos) / 1000.0;
        if (km < kBucketEdgesKm[0]) continue;
        const size_t b = BucketOf(km);
        if (bucket_count[b] >= kGapsPerBucket) continue;
        ++bucket_count[b];
        api::ImputeRequest req;
        req.gap_start = gap->gap_start.pos;
        req.gap_end = gap->gap_end.pos;
        req.t_start = gap->gap_start.ts;
        req.t_end = gap->gap_end.ts;
        req.vessel_type = trip.type;
        requests.push_back(req);
      }
    }
  }
  if (requests.empty()) {
    std::printf("\nno gaps prepared; skipping long-gap section\n");
    return;
  }

  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "bench_table4_alt.snap")
          .string();
  // r=10: the fine-resolution graph is where long gaps hurt — search
  // balls of tens of thousands of nodes — and therefore where the
  // landmark corridor has room to pay. The coarser r=9 queries of the
  // sections above spend most of their time outside the search.
  {
    auto built = api::MakeModel(
        "habit:r=10,landmarks=16,save=" + snapshot_path, exp.train_trips);
    if (!built.ok()) {
      std::printf("\nlong-gap section skipped (snapshot build): %s\n",
                  built.status().ToString().c_str());
      return;
    }
  }

  std::printf("\nLong-gap latency by gap length (KIEL, %zu gaps, r=10, "
              "landmarks=16): alt=0 vs alt=1\n  gaps per bucket:",
              requests.size());
  for (size_t b = 0; b < kNumBuckets; ++b) {
    std::printf("  %s km: %zu", BucketLabel(b).c_str(), bucket_count[b]);
  }
  std::printf("\n");
  std::unique_ptr<api::ImputationModel> models[2];
  for (const int alt : {0, 1}) {
    const std::string spec = "habit:load=" + snapshot_path +
                             (alt != 0 ? ",alt=1" : "");
    auto model = api::MakeModel(spec, {});
    if (!model.ok()) {
      std::printf("  %s failed: %s\n", spec.c_str(),
                  model.status().ToString().c_str());
      return;
    }
    models[alt] = std::move(model).MoveValue();
  }
  // Per-query latency is sub-millisecond, so a single pass is dominated
  // by cache-warmup and scheduler noise (±15% run to run). Repeat the
  // batch and keep each query's minimum — the steady-state latency. The
  // two modes take turns pass by pass, so a slow stretch of the machine
  // lands on both sides of the ratio instead of on one mode's passes.
  constexpr int kReps = 7;
  std::vector<Result<api::ImputeResponse>> responses[2];
  std::vector<double> query_seconds[2];
  for (int rep = 0; rep < kReps; ++rep) {
    for (const int alt : {0, 1}) {
      std::vector<double> rep_seconds;
      auto rep_responses = models[alt]->ImputeBatch(requests, &rep_seconds);
      if (rep == 0) {
        responses[alt] = std::move(rep_responses);
        query_seconds[alt] = std::move(rep_seconds);
        continue;
      }
      for (size_t i = 0; i < rep_seconds.size(); ++i) {
        query_seconds[alt][i] = std::min(query_seconds[alt][i],
                                         rep_seconds[i]);
      }
    }
  }
  // p50 per bucket per mode, for the speedup summary: [mode][bucket].
  double p50[2][kNumBuckets] = {};
  for (const int alt : {0, 1}) {
    std::vector<std::vector<double>> bucket_seconds(kNumBuckets);
    std::vector<double> bucket_expanded(kNumBuckets, 0.0);
    std::vector<size_t> bucket_ok(kNumBuckets, 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      const size_t b = BucketOf(geo::HaversineMeters(
                                    requests[i].gap_start,
                                    requests[i].gap_end) / 1000.0);
      bucket_seconds[b].push_back(query_seconds[alt][i]);
      if (responses[alt][i].ok()) {
        bucket_expanded[b] += static_cast<double>(
            responses[alt][i].value().expanded);
        ++bucket_ok[b];
      }
    }
    std::printf("  alt=%d  %-8s %8s %12s %12s %14s\n", alt, "bucket_km",
                "gaps", "p50_ms", "p99_ms", "mean_expanded");
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (bucket_seconds[b].empty()) continue;
      const double p50_s = Percentile(bucket_seconds[b], 0.50);
      const double p99_s = Percentile(bucket_seconds[b], 0.99);
      const double mean_expanded =
          bucket_ok[b] > 0 ? bucket_expanded[b] / bucket_ok[b] : 0.0;
      p50[alt][b] = p50_s;
      std::printf("         %-8s %8zu %12.3f %12.3f %14.0f\n",
                  BucketLabel(b).c_str(), bucket_seconds[b].size(),
                  p50_s * 1e3, p99_s * 1e3, mean_expanded);
      std::printf(
          "BENCH_METRIC {\"metric\":\"long_gap_latency\",\"dataset\":"
          "\"KIEL\",\"alt\":%d,\"bucket_km\":\"%s\",\"count\":%zu,"
          "\"p50_s\":%.6f,\"p99_s\":%.6f,\"mean_expanded\":%.0f}\n",
          alt, BucketLabel(b).c_str(), bucket_seconds[b].size(), p50_s,
          p99_s, mean_expanded);
    }
  }
  std::printf("  p50 speedup (alt=0 / alt=1):");
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (p50[0][b] <= 0 || p50[1][b] <= 0) continue;
    std::printf("  %s: %.2fx", BucketLabel(b).c_str(), p50[0][b] / p50[1][b]);
  }
  std::printf("\n");
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (p50[0][b] <= 0 || p50[1][b] <= 0) continue;
    std::printf(
        "BENCH_METRIC {\"metric\":\"long_gap_speedup\",\"dataset\":"
        "\"KIEL\",\"bucket_km\":\"%s\",\"p50_speedup\":%.3f}\n",
        BucketLabel(b).c_str(), p50[0][b] / p50[1][b]);
  }
  std::remove(snapshot_path.c_str());
}

}  // namespace

int main() {
  using namespace habit;
  std::printf("Table 4: Average and maximum query latency (sec)\n");

  std::vector<std::string> specs;
  for (int r : {9, 10}) {
    for (int t : {100, 250}) {
      specs.push_back("habit:r=" + std::to_string(r) +
                      ",t=" + std::to_string(t));
    }
  }
  for (const char* rd : {"1e-4", "5e-4", "1e-3"}) {
    specs.push_back(std::string("gti:rm=250,rd=") + rd);
  }

  for (const char* dataset : {"KIEL", "SAR"}) {
    eval::ExperimentOptions options;
    options.scale = 1.0;
    options.seed = 42;
    options.sampler.report_interval_s = 10.0;  // class-A density
    auto exp = eval::PrepareExperiment(dataset, options).MoveValue();
    std::printf("%s (%zu gaps)\n", dataset, exp.gaps.size());
    std::printf("  %s\n", eval::FormatLatencyHeader().c_str());
    for (const std::string& spec : specs) {
      auto report = eval::RunMethod(exp, spec);
      if (!report.ok()) continue;
      std::printf("  %s\n", eval::FormatLatencyRow(report.value()).c_str());
      EmitLatencyMetric(dataset, spec, report.value());
    }
  }

  // Parallel-batch scaling: the gap set is tiled to a steady batch so the
  // wall-clock speedup over the serial path is measurable.
  {
    eval::ExperimentOptions options;
    options.scale = 1.0;
    options.seed = 42;
    options.sampler.report_interval_s = 10.0;
    auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
    const std::vector<api::ImputeRequest> gap_requests =
        eval::GapRequests(exp);
    if (gap_requests.empty()) {
      std::printf("\nno gaps prepared; skipping batch-scaling section\n");
      return 0;
    }
    constexpr size_t kBatch = 512;
    std::vector<api::ImputeRequest> batch;
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back(gap_requests[i % gap_requests.size()]);
    }
    // Each model gets one untimed warm-up pass (graph pages and scratch
    // arrays are first touched there), then kPasses timed passes; the
    // median is reported with the min and max.
    constexpr int kPasses = 5;
    std::printf("\nParallel ImputeBatch scaling (KIEL, %zu queries, "
                "habit:r=9,threads=N; %u hardware threads; median of %d "
                "warmed passes)\n", batch.size(),
                std::thread::hardware_concurrency(), kPasses);
    double serial_wall = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      const std::string spec = "habit:r=9,threads=" + std::to_string(threads);
      auto model = api::MakeModel(spec, exp.train_trips);
      if (!model.ok()) {
        std::printf("  %s failed: %s\n", spec.c_str(),
                    model.status().ToString().c_str());
        continue;
      }
      (void)model.value()->ImputeBatch(batch, nullptr);
      std::vector<double> walls;
      for (int pass = 0; pass < kPasses; ++pass) {
        Stopwatch sw;
        (void)model.value()->ImputeBatch(batch, nullptr);
        walls.push_back(sw.ElapsedSeconds());
      }
      std::sort(walls.begin(), walls.end());
      const double wall = walls[walls.size() / 2];
      if (threads == 1) serial_wall = wall;
      const double speedup = wall > 0 ? serial_wall / wall : 0.0;
      std::printf("  threads=%d  wall=%.3fs (min %.3f, max %.3f)  "
                  "%.0f queries/s  speedup=%.2fx\n",
                  threads, wall, walls.front(), walls.back(),
                  static_cast<double>(batch.size()) / wall, speedup);
      std::printf(
          "BENCH_METRIC {\"metric\":\"batch_scaling\",\"dataset\":\"KIEL\","
          "\"spec\":\"%s\",\"threads\":%d,\"hw_threads\":%u,"
          "\"passes\":%d,\"wall_s\":%.4f,\"wall_min_s\":%.4f,"
          "\"wall_max_s\":%.4f,\"speedup\":%.3f}\n",
          spec.c_str(), threads, std::thread::hardware_concurrency(), kPasses,
          wall, walls.front(), walls.back(), speedup);
    }
  }

  RunLongGapSection();

  std::printf("\npaper reference (KIEL): HABIT avg 0.019-0.071s; GTI avg "
              "0.26-0.40s. (SAR): HABIT 0.031-0.139s; GTI 0.49-1.22s\n");
  std::printf("expected shape: HABIT subsecond and faster than GTI; both "
              "slower on SAR; HABIT latency rises with r\n");
  return 0;
}
