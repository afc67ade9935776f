// Tests for the sketch module: HyperLogLog error bounds, merge algebra and
// the sparse distinct count, P^2 quantile estimation accuracy, exact median,
// reservoir sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"
#include "sketch/reservoir.h"

namespace habit::sketch {
namespace {

class HllCardinalityTest : public ::testing::TestWithParam<int> {};

TEST_P(HllCardinalityTest, EstimateWithinExpectedError) {
  const int n = GetParam();
  HyperLogLog hll(12);  // ~1.6% standard error
  for (int i = 0; i < n; ++i) hll.AddInt(static_cast<uint64_t>(i) * 2654435761);
  const double est = hll.Estimate();
  // Allow 5 standard errors plus small-n slack.
  const double tol = std::max(2.0, 5 * 0.0163 * n);
  EXPECT_NEAR(est, n, tol) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllCardinalityTest,
                         ::testing::Values(1, 10, 100, 1000, 10000, 100000));

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) hll.AddInt(i);
  }
  EXPECT_NEAR(hll.Estimate(), 100, 10);
}

TEST(HllTest, StringsAndIntsHashIndependently) {
  HyperLogLog hll(12);
  for (int i = 0; i < 500; ++i) hll.AddString("vessel-" + std::to_string(i));
  EXPECT_NEAR(hll.Estimate(), 500, 50);
}

TEST(HllTest, EmptySketchEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_NEAR(hll.Estimate(), 0, 1e-9);
}

TEST(HllTest, MergeIsUnion) {
  HyperLogLog a(12), b(12);
  for (int i = 0; i < 1000; ++i) a.AddInt(i);
  for (int i = 500; i < 1500; ++i) b.AddInt(i);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_NEAR(a.Estimate(), 1500, 120);
}

TEST(HllTest, MergeRejectsMismatchedPrecision) {
  HyperLogLog a(12), b(10);
  EXPECT_FALSE(a.Merge(b));
}

TEST(HllTest, PrecisionClampedIntoRange) {
  EXPECT_EQ(HyperLogLog(1).precision(), 4);
  EXPECT_EQ(HyperLogLog(30).precision(), 18);
  EXPECT_EQ(HyperLogLog(12).SizeBytes(), 4096u);
}

// EstimateDistinct must return Estimate()'s bits for the same keys on both
// sides of its 70% register threshold.
double DenseEstimate(const std::vector<uint64_t>& keys, int precision) {
  HyperLogLog hll(precision);
  for (const uint64_t key : keys) hll.AddInt(key);
  return hll.Estimate();
}

double SparseEstimate(std::vector<uint64_t> keys, int precision) {
  return HyperLogLog::EstimateDistinct(keys, precision);
}

TEST(HllTest, EstimateDistinctMatchesDenseSketchBitForBit) {
  for (int p = 4; p <= 14; ++p) {
    const int64_t m = int64_t{1} << p;
    Rng rng(static_cast<uint64_t>(p));
    // 0..64 keys one by one, then up to 4·2^p keys in steps of 2^p/16;
    // keys drawn from [0, n] repeat, so dedup is exercised too.
    std::vector<int64_t> sizes;
    for (int64_t n = 0; n <= 64; ++n) sizes.push_back(n);
    for (int64_t n = m / 16; n <= 4 * m; n += m / 16) sizes.push_back(n);
    for (const int64_t n : sizes) {
      std::vector<uint64_t> keys(static_cast<size_t>(n));
      for (uint64_t& key : keys) {
        key = static_cast<uint64_t>(rng.UniformInt(0, n));
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(SparseEstimate(keys, p)),
                std::bit_cast<uint64_t>(DenseEstimate(keys, p)))
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(HllTest, EstimateDistinctMatchesAtTheThresholdEdge) {
  for (int p = 4; p <= 14; ++p) {
    const size_t m = size_t{1} << p;
    std::vector<uint64_t> keys;
    std::vector<bool> hit(m, false);
    size_t hits = 0;
    // Add keys until the hit registers pass 70% by two; compare at every
    // hit count within two of the threshold (10·hits vs 7·m).
    for (uint64_t key = 0; 10 * hits <= 7 * m + 20; ++key) {
      keys.push_back(key);
      const uint64_t index = HyperLogLog::Hash64(key) >> (64 - p);
      if (hit[index]) continue;
      hit[index] = true;
      ++hits;
      if (10 * hits + 20 < 7 * m) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(SparseEstimate(keys, p)),
                std::bit_cast<uint64_t>(DenseEstimate(keys, p)))
          << "p=" << p << " hits=" << hits;
    }
  }
}

TEST(ExactMedianTest, OddAndEvenCounts) {
  ExactMedian med;
  for (double v : {5.0, 1.0, 3.0}) med.Add(v);
  EXPECT_DOUBLE_EQ(med.Median(), 3.0);
  med.Add(7.0);
  EXPECT_DOUBLE_EQ(med.Median(), 4.0);  // (3+5)/2
}

TEST(ExactMedianTest, EmptyIsNaN) {
  ExactMedian med;
  EXPECT_TRUE(std::isnan(med.Median()));
}

class P2QuantileTest : public ::testing::TestWithParam<double> {};

TEST_P(P2QuantileTest, TracksUniformDistribution) {
  const double q = GetParam();
  P2Quantile est(q);
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Uniform(0.0, 100.0);
    est.Add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
  EXPECT_NEAR(est.Estimate(), exact, 2.0) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2QuantileTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(P2QuantileTest, GaussianMedian) {
  P2Quantile est(0.5);
  Rng rng(8);
  for (int i = 0; i < 50000; ++i) est.Add(rng.Gaussian(42.0, 5.0));
  EXPECT_NEAR(est.Estimate(), 42.0, 0.5);
}

TEST(P2QuantileTest, SmallSamplesAreExact) {
  P2Quantile est(0.5);
  est.Add(10);
  EXPECT_DOUBLE_EQ(est.Estimate(), 10);
  est.Add(20);
  EXPECT_NEAR(est.Estimate(), 15, 1e-9);
  P2Quantile empty(0.5);
  EXPECT_TRUE(std::isnan(empty.Estimate()));
}

TEST(ReservoirTest, KeepsAllWhenUnderCapacity) {
  Reservoir<int> res(10, 3);
  for (int i = 0; i < 5; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), 5u);
  EXPECT_EQ(res.seen(), 5u);
}

TEST(ReservoirTest, CapsAtCapacityAndSamplesUniformly) {
  // Each item should be retained with probability capacity/N; check the
  // mean of retained values is near the stream mean.
  const size_t capacity = 500;
  Reservoir<int> res(capacity, 11);
  const int n = 20000;
  for (int i = 0; i < n; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), capacity);
  double mean = 0;
  for (int v : res.items()) mean += v;
  mean /= static_cast<double>(capacity);
  EXPECT_NEAR(mean, n / 2.0, n * 0.05);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
  Rng c(124);
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.Uniform(0, 1) != c.Uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const int64_t k = rng.UniformInt(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
    EXPECT_GE(rng.Exponential(0.5), 0.0);
  }
}

}  // namespace
}  // namespace habit::sketch
