// HyperLogLog cardinality sketch, backing the HABIT builder's
// approx_count_distinct — the aggregate the paper uses for distinct-vessel
// and distinct-trip counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace habit::sketch {

/// \brief HyperLogLog distinct-count estimator (Flajolet et al. 2007) with
/// linear-counting correction for small cardinalities.
///
/// The precision parameter p in [4, 18] gives 2^p one-byte registers and a
/// relative standard error of roughly 1.04 / sqrt(2^p) (~1.6% at p=12).
class HyperLogLog {
 public:
  /// Creates a sketch with 2^precision registers. Precision is clamped into
  /// [4, 18].
  explicit HyperLogLog(int precision = 12);

  /// Adds a pre-hashed 64-bit value.
  void AddHash(uint64_t hash);

  /// Adds a 64-bit integer key (hashed internally).
  void AddInt(uint64_t key);

  /// Adds a string key (hashed internally).
  void AddString(const std::string& key);

  /// Current cardinality estimate.
  double Estimate() const;

  /// Merges another sketch of the same precision (register-wise max).
  /// Sketches of different precision cannot be merged; returns false.
  bool Merge(const HyperLogLog& other);

  int precision() const { return precision_; }
  size_t SizeBytes() const { return registers_.size(); }

  /// 64-bit avalanche hash used for all keys (SplitMix64 finalizer).
  static uint64_t Hash64(uint64_t x);

  /// \brief The Estimate() of a sketch fed every key through AddInt, bit
  /// for bit, usually without allocating the registers.
  ///
  /// Hash64 is a bijection, so the sorted hashes dedup the keys and give
  /// the registers they hit. While at most 70% of the 2^p registers are
  /// hit, at least 0.3·2^p stay zero, the raw estimate is at most
  /// alpha·2^p/0.3 < 2.5·2^p for every p in [4, 18], and Estimate() takes
  /// its linear-counting branch, which depends only on the zero count;
  /// that value is returned here from the same expression. Above 70% the
  /// dense sketch is built (the sparse mode of HyperLogLog++, Heule et
  /// al. 2013). Uses `keys` as scratch: on return it holds the sorted
  /// hashes.
  static double EstimateDistinct(std::span<uint64_t> keys, int precision);

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace habit::sketch
