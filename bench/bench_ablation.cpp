// Ablation study over HABIT's design choices (not a paper table; supports
// the design discussion in Sections 3.2-3.3):
//
//  (a) edge-cost policy — pure hop count vs inverse frequency vs the
//      default hops-then-frequency tie-breaking;
//  (b) transition expansion — materializing the cells skipped by sparse
//      reporting vs keeping only raw (lag_cl, cl) jumps;
//  (c) median aggregate — exact median vs the constant-memory P^2
//      estimator inside the per-cell statistics.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/stopwatch.h"
#include "eval/harness.h"
#include "geo/latlng.h"
#include "hexgrid/hexgrid.h"
#include "sketch/quantile.h"

namespace {

using namespace habit;

void Report(const char* label, const Result<eval::MethodReport>& r) {
  if (!r.ok()) {
    std::printf("  %-34s failed: %s\n", label, r.status().ToString().c_str());
    return;
  }
  std::printf("  %-34s DTW med %8.1f  mean %8.1f  fail %zu  lat avg %7.4fs\n",
              label, r.value().accuracy.median, r.value().accuracy.mean,
              r.value().accuracy.failures, r.value().latency.Mean());
}

struct CellPoint {
  hex::CellId cell;
  geo::LatLng pos;
};

// One median position per run of equal cells, each coordinate through its
// own Estimator; `read` turns a filled estimator into its median.
template <typename Estimator, typename Read>
std::vector<geo::LatLng> CellMedians(const std::vector<CellPoint>& points,
                                     Read read) {
  std::vector<geo::LatLng> out;
  for (size_t begin = 0, end = 0; begin < points.size(); begin = end) {
    Estimator lat, lng;
    for (end = begin;
         end < points.size() && points[end].cell == points[begin].cell;
         ++end) {
      lat.Add(points[end].pos.lat);
      lng.Add(points[end].pos.lng);
    }
    out.push_back({read(lat), read(lng)});
  }
  return out;
}

}  // namespace

int main() {
  eval::ExperimentOptions options;
  options.scale = 1.0;
  options.seed = 42;
  options.sampler.report_interval_s = 10.0;
  auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
  std::printf("Ablations [KIEL, %zu gaps]\n", exp.gaps.size());

  std::printf("(a) edge-cost policy:\n");
  for (const char* cost : {"hops", "invfreq", "hopsfreq"}) {
    Report(cost, eval::RunMethod(exp, std::string("habit:cost=") + cost));
  }

  std::printf("(b) transition expansion:\n");
  for (const bool expand : {true, false}) {
    Report(expand ? "expand skipped cells (default)" : "raw jumps only",
           eval::RunMethod(
               exp, std::string("habit:expand=") + (expand ? "1" : "0")));
  }

  std::printf("(c) per-cell median aggregate (statistics build only):\n");
  {
    // The train points sorted by their r=9 cell; the stable sort hands each
    // cell's values to the estimators in input order, as the builder does.
    std::vector<CellPoint> points;
    for (const ais::Trip& trip : exp.train_trips) {
      for (const ais::AisRecord& r : trip.points) {
        points.push_back({hex::LatLngToCell(r.pos, 9), r.pos});
      }
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const CellPoint& a, const CellPoint& b) {
                       return a.cell < b.cell;
                     });
    Stopwatch sw;
    const std::vector<geo::LatLng> exact = CellMedians<sketch::ExactMedian>(
        points, [](const sketch::ExactMedian& m) { return m.Median(); });
    std::printf("  %-34s build %6.3fs over %zu cells\n", "exact median",
                sw.ElapsedSeconds(), exact.size());
    sw.Reset();
    const std::vector<geo::LatLng> p2 = CellMedians<sketch::P2Quantile>(
        points, [](const sketch::P2Quantile& q) { return q.Estimate(); });
    const double p2_s = sw.ElapsedSeconds();
    double deviation_m = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      deviation_m += geo::HaversineMeters(exact[i], p2[i]);
    }
    std::printf("  %-34s build %6.3fs over %zu cells, mean |P^2 - exact| "
                "%.1f m\n",
                "P^2 median", p2_s, p2.size(),
                exact.empty() ? 0.0 : deviation_m / exact.size());
  }
  std::printf("\nexpected: hops-then-frequency ~= hops, both more stable "
              "than inverse-frequency; disabling expansion raises failures "
              "on sparse data; P^2 stays within metres of the exact median "
              "with bounded memory\n");
  return 0;
}
