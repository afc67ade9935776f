#include "gaps.h"

#include "core/rng.h"
#include "geo/latlng.h"

namespace perfbench {

double GapKm(const sim::GapCase& gap) {
  return habit::geo::HaversineMeters(gap.gap_start.pos, gap.gap_end.pos) /
         1000.0;
}

GapSet MakeGapSet(const std::vector<ais::Trip>& trips,
                  const GapSetOptions& options, uint64_t seed) {
  GapSet set;
  set.seed = seed;
  habit::Rng rng(seed);
  for (const ais::Trip& trip : trips) {
    for (const int64_t duration : options.durations_s) {
      habit::sim::GapOptions gap_options;
      gap_options.gap_seconds = duration;
      for (int p = 0; p < options.placements_per_trip; ++p) {
        auto gap = habit::sim::InjectGap(trip, gap_options, &rng);
        if (!gap.has_value()) continue;
        const double km = GapKm(*gap);
        if (km < options.min_km) continue;
        size_t bucket = kBucketUpperKm.size();
        for (size_t b = 0; b < kBucketUpperKm.size(); ++b) {
          if (km < kBucketUpperKm[b]) {
            bucket = b;
            break;
          }
        }
        ++set.bucket_counts[bucket];
        set.cases.push_back(std::move(*gap));
      }
    }
  }
  return set;
}

std::vector<habit::api::ImputeRequest> GapRequests(const GapSet& set) {
  std::vector<habit::api::ImputeRequest> requests;
  requests.reserve(set.cases.size());
  for (const sim::GapCase& gap : set.cases) {
    habit::api::ImputeRequest request;
    request.gap_start = gap.gap_start.pos;
    request.gap_end = gap.gap_end.pos;
    request.t_start = gap.gap_start.ts;
    request.t_end = gap.gap_end.ts;
    request.vessel_type = gap.degraded.type;
    requests.push_back(request);
  }
  return requests;
}

std::string DescribeGapSet(const GapSet& set) {
  static const char* kLabels[] = {"0-2", "2-5", "5-10", "10-20", "20-50",
                                  "50+"};
  std::string out = "seed=" + std::to_string(set.seed) +
                    " gaps=" + std::to_string(set.cases.size());
  for (size_t b = 0; b < set.bucket_counts.size(); ++b) {
    out += std::string(" km[") + kLabels[b] +
           "]=" + std::to_string(set.bucket_counts[b]);
  }
  return out;
}

}  // namespace perfbench
