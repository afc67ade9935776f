#include "sketch/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace habit::sketch {

namespace {

double AlphaM(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision)
    : precision_(std::clamp(precision, 4, 18)),
      registers_(1ULL << precision_, 0) {}

uint64_t HyperLogLog::Hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void HyperLogLog::AddHash(uint64_t hash) {
  const uint64_t index = hash >> (64 - precision_);
  const uint64_t tail = hash << precision_;
  // Rank = number of leading zeros in the remaining bits, + 1.
  const int rank =
      tail == 0 ? (64 - precision_ + 1) : (std::countl_zero(tail) + 1);
  uint8_t& reg = registers_[index];
  reg = std::max<uint8_t>(reg, static_cast<uint8_t>(rank));
}

void HyperLogLog::AddInt(uint64_t key) { AddHash(Hash64(key)); }

void HyperLogLog::AddString(const std::string& key) {
  // FNV-1a, then avalanche.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  AddHash(Hash64(h));
}

double HyperLogLog::Estimate() const {
  const size_t m = registers_.size();
  double sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = AlphaM(m) * static_cast<double>(m) *
                    static_cast<double>(m) / sum;
  // Small-range (linear counting) correction.
  if (estimate <= 2.5 * static_cast<double>(m) && zeros > 0) {
    estimate = static_cast<double>(m) *
               std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  return estimate;
}

double HyperLogLog::EstimateDistinct(std::span<uint64_t> keys,
                                     int precision) {
  const int p = std::clamp(precision, 4, 18);
  const size_t m = size_t{1} << p;
  for (uint64_t& key : keys) key = Hash64(key);
  std::sort(keys.begin(), keys.end());
  // The register index is the hash's top p bits, so sorted hashes visit
  // each hit register in one run.
  size_t hit = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || (keys[i] >> (64 - p)) != (keys[i - 1] >> (64 - p))) ++hit;
  }
  if (10 * hit <= 7 * m) {
    const size_t zeros = m - hit;
    return static_cast<double>(m) *
           std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  HyperLogLog dense(p);
  for (const uint64_t hash : keys) dense.AddHash(hash);
  return dense.Estimate();
}

bool HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) return false;
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  return true;
}

}  // namespace habit::sketch
