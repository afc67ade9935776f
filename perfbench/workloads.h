// The four workloads. Each runs the real user-facing surface end to end,
// checks every timed answer against an in-process reference, and reports
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  ///< bulk | serve | live | route
  uint64_t seed = 1;
  double seconds = 10;   ///< the timed window
  bool trace = false;
  std::string bin_dir;   ///< where habit_serve and habit_route were built
  std::string work_dir;  ///< temporary files for this run (removed after)
};

struct RunReport {
  MetricSink metrics;
  Outcome outcome;
  /// Human-readable report lines (the per-workload table, gap buckets,
  /// sample counts), printed before the result line.
  std::vector<std::string> lines;
  Tracer tracer;
};

/// The workloads perfbench knows: BENCHMARK.json's, in its order, with
/// live (run by hand, see README.md) before route.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. A non-OK status means the run itself broke (a child
/// failed to start, a reference could not be built); wrong answers are
/// counted in `report->outcome`, not returned here.
habit::Status RunWorkload(const RunConfig& config, RunReport* report);

}  // namespace perfbench
