// perfbench — one run of one workload (run.py builds this and calls it).
//
//   perfbench --workload bulk|serve|live|route --seed N --seconds S
//             --trace 0|1 --bin-dir DIR --work-dir DIR [--spans PATH]
//
// Prints a human-readable report, then as its last line one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 only when the run completed; wrong answers
// make "correct" false and count in "failed".
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/parse.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
               "[--spans PATH]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      const auto v = habit::core::ParseInt64(value);
      if (!v.ok() || v.value() < 0) return Usage("bad --seed");
      config.seed = static_cast<uint64_t>(v.value());
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = habit::core::ParseDouble(value);
      if (!v.ok() || v.value() <= 0 || v.value() > 600) {
        return Usage("bad --seconds");
      }
      config.seconds = v.value();
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--bin-dir") {
      config.bin_dir = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.bin_dir.empty() ||
      config.work_dir.empty()) {
    return Usage("missing a required flag");
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage("cannot create --work-dir");

  RunReport report;
  const habit::Status status = RunWorkload(config, &report);
  std::filesystem::remove_all(config.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s run failed: %s\n",
                 config.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  if (!spans_path.empty() && !report.tracer.WriteJsonLines(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
    return 1;
  }

  std::printf("%s workload, seed %llu, %s run\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced");
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("  %-28s %16s %-10s %s\n", "metric", "value", "unit", "samples");
  for (const MetricSink::Metric& m : report.metrics.metrics()) {
    std::printf("  %-28s %16.6f %-10s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  if (config.trace) {
    std::printf("  spans recorded: %zu\n", report.tracer.spans().size());
  }
  for (const std::string& e : report.outcome.first_errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\":";
  json += report.outcome.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(report.outcome.attempted);
  json += ",\"failed\":" + std::to_string(report.outcome.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const MetricSink::Metric& m : report.metrics.metrics()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    if (!first) json += ",";
    first = false;
    json += "\"" + m.name + "\":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
