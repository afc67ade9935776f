// Streaming quantile estimation. The HABIT builder's per-cell medians are
// exact (ExactMedian, matching DuckDB's `median`); the P^2 estimator is the
// constant-memory alternative behind the served latency percentiles and the
// ablation bench.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace habit::sketch {

/// \brief P^2 (piecewise-parabolic) single-quantile estimator
/// (Jain & Chlamtac 1985). O(1) memory, one pass.
class P2Quantile {
 public:
  /// q in (0, 1); e.g. 0.5 for the median.
  explicit P2Quantile(double q = 0.5);

  void Add(double value);

  /// Current estimate; exact while fewer than 5 observations have been seen.
  double Estimate() const;

  size_t count() const { return count_; }

 private:
  double q_;
  size_t count_ = 0;
  std::array<double, 5> heights_{};     // marker heights
  std::array<double, 5> positions_{};   // actual marker positions
  std::array<double, 5> desired_{};     // desired marker positions
  std::array<double, 5> increments_{};  // desired position increments
  std::vector<double> warmup_;          // first five observations
};

/// \brief Exact running median over a bounded value buffer. Kept simple:
/// stores all values; Median() sorts a scratch copy on demand.
class ExactMedian {
 public:
  void Add(double value) { values_.push_back(value); }
  /// NaN if empty; midpoint convention for even counts.
  double Median() const;
  size_t count() const { return values_.size(); }
  size_t SizeBytes() const { return values_.size() * sizeof(double); }

 private:
  std::vector<double> values_;
};

}  // namespace habit::sketch
