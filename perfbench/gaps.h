// Canonical gap sets: many seeded gap placements per test trip at several
// durations, on top of sim::InjectGap. The harness's one-gap-per-trip
// injection gives KIEL 14 gaps; this gives thousands, so percentiles and
// per-distance buckets rest on real samples.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ais/ais.h"
#include "api/imputation_model.h"
#include "common.h"
#include "sim/gaps.h"

namespace perfbench {

/// \brief What to place in every test trip.
struct GapSetOptions {
  std::vector<int64_t> durations_s;  ///< one placement round per duration
  int placements_per_trip = 1;       ///< placements per trip per duration
  /// Gaps whose endpoints lie closer than this (straight line) are dropped.
  double min_km = 0.0;
};

/// Upper bounds (km) of the reporting buckets 0-2, 2-5, 5-10, 10-20,
/// 20-50; the sixth bucket is 50+.
inline constexpr std::array<double, 5> kBucketUpperKm = {2, 5, 10, 20, 50};

/// \brief A generated gap set: the cases and their distance histogram.
struct GapSet {
  uint64_t seed = 0;
  std::vector<sim::GapCase> cases;
  std::array<size_t, 6> bucket_counts{};
};

/// Straight-line distance between a gap's boundary reports, in km.
double GapKm(const sim::GapCase& gap);

/// Places `placements_per_trip` gaps of every duration in every trip, in
/// a fixed (trip, duration, placement) order from one RNG stream seeded
/// with `seed`: the same trips and seed always give the same set.
/// Placements a trip cannot host, and gaps shorter than `min_km`, are
/// skipped.
GapSet MakeGapSet(const std::vector<ais::Trip>& trips,
                  const GapSetOptions& options, uint64_t seed);

/// The gap set as API requests (boundary positions, times, vessel type).
std::vector<habit::api::ImputeRequest> GapRequests(const GapSet& set);

/// "seed=7 gaps=2100 km[0-2]=0 km[2-5]=0 ..." — the line every run prints.
std::string DescribeGapSet(const GapSet& set);

}  // namespace perfbench
