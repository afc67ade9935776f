// Shared plumbing for perfbench: clocks, order statistics, the
// metric sink every workload reports into, and the in-memory span tracer.
//
// Spans follow the benchmark's tracing rule: one span per call into a
// layer's public function, recorded from the benchmark's own code (the
// program under test carries no instrumentation), kept in memory, and
// written out once when the run ends. A span's self time is its duration
// minus the union of its children's intervals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace habit::ais {}
namespace habit::api {}
namespace habit::core {}
namespace habit::graph {}
namespace habit::router {}
namespace habit::server {}
namespace habit::sim {}

namespace perfbench {

namespace ais = habit::ais;
namespace api = habit::api;
namespace core = habit::core;
namespace graph = habit::graph;
namespace router = habit::router;
namespace server = habit::server;
namespace sim = habit::sim;

/// Monotonic nanoseconds (steady_clock), the one clock every timing uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t idx = static_cast<size_t>(rank + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// \brief The metrics one run reports, in insertion order.
///
/// `samples` is the count the value summarizes (queries, frames, cycles),
/// printed beside it so a reader can judge how far a percentile reaches.
class MetricSink {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m = {name, value, unit, samples};
        return;
      }
    }
    metrics_.push_back({name, value, unit, samples});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

/// \brief Operations attempted and failed, the benchmark's failure
/// accounting: a transport error, a frame rejection, a timeout and a
/// reference mismatch each count one failed operation.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_errors;  ///< a few, for the report

  void Fail(const std::string& why) {
    ++failed;
    if (first_errors.size() < 5) first_errors.push_back(why);
  }
};

/// \brief In-memory span recorder. Thread-safe: the router's fan-out
/// threads record backend spans concurrently with the probe thread.
class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = kNoParent;  ///< index into spans(), or kNoParent
    int64_t request = -1;        ///< request id the span belongs to
  };

  /// Records a finished span; returns its index (a parent handle).
  int64_t Record(std::string name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, int64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Reserves a parent span before its children run (their parent index
  /// must exist); Close() fills in the end time.
  int64_t Open(std::string name, int64_t parent, int64_t request) {
    return Record(std::move(name), NowNs(), 0, parent, request);
  }
  void Close(int64_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (microseconds) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Per-request sums of the durations of spans named `name`
  /// (microseconds), one entry per request id that has such spans.
  std::vector<double> PerRequestSumUs(const std::string& name) const;

  /// Self times (microseconds) of every span named `name`: duration minus
  /// the union of its direct children's intervals.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  /// Writes every span as one JSON object per line; false on IO error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Length of the union of [start, end) intervals (nanoseconds).
int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace perfbench
