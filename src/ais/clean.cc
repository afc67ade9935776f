#include "ais/clean.h"

#include <cmath>
#include <map>

#include "geo/latlng.h"

namespace habit::ais {

const char* VesselTypeToString(VesselType t) {
  switch (t) {
    case VesselType::kPassenger: return "passenger";
    case VesselType::kCargo: return "cargo";
    case VesselType::kTanker: return "tanker";
    case VesselType::kFishing: return "fishing";
    case VesselType::kPleasure: return "pleasure";
    case VesselType::kOther: return "other";
  }
  return "?";
}

std::vector<AisRecord> CleanVesselRecords(const std::vector<AisRecord>& input,
                                          const CleanOptions& options,
                                          CleanStats* stats) {
  CleanStats local;
  local.input = input.size();
  std::vector<AisRecord> out;
  out.reserve(input.size());

  for (const AisRecord& r : input) {
    if (!r.pos.IsValid()) {
      ++local.invalid_coords;
      continue;
    }
    if (!std::isfinite(r.sog) || !std::isfinite(r.cog)) {
      ++local.non_finite_motion;
      continue;
    }
    if (r.sog < 0 || r.sog > options.max_sog_knots) {
      ++local.invalid_speed;
      continue;
    }
    if (!out.empty()) {
      const AisRecord& prev = out.back();
      const int64_t dt = r.ts - prev.ts;
      if (dt < 0) {
        // Delayed message distorting the sequence.
        ++local.out_of_order;
        continue;
      }
      const double dist = geo::HaversineMeters(prev.pos, r.pos);
      if (dt <= options.duplicate_window_seconds &&
          dist <= options.duplicate_radius_m) {
        ++local.duplicates;
        continue;
      }
      if (dt > 0) {
        const double implied_knots = geo::MpsToKnots(dist / dt);
        if (implied_knots > options.max_implied_speed_knots) {
          ++local.speed_spikes;
          continue;
        }
      } else if (dist > options.duplicate_radius_m) {
        // Same timestamp, different position: physically impossible.
        ++local.speed_spikes;
        continue;
      }
    }
    out.push_back(r);
  }

  local.kept = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<AisRecord> CleanStream(const std::vector<AisRecord>& input,
                                   const CleanOptions& options,
                                   CleanStats* stats) {
  // Stable per-vessel grouping: std::map gives deterministic vessel order.
  std::map<int64_t, std::vector<AisRecord>> by_vessel;
  for (const AisRecord& r : input) by_vessel[r.mmsi].push_back(r);

  CleanStats total;
  total.input = input.size();
  std::vector<AisRecord> out;
  out.reserve(input.size());
  for (auto& [mmsi, records] : by_vessel) {
    CleanStats vessel_stats;
    std::vector<AisRecord> cleaned =
        CleanVesselRecords(records, options, &vessel_stats);
    total.invalid_coords += vessel_stats.invalid_coords;
    total.non_finite_motion += vessel_stats.non_finite_motion;
    total.invalid_speed += vessel_stats.invalid_speed;
    total.duplicates += vessel_stats.duplicates;
    total.out_of_order += vessel_stats.out_of_order;
    total.speed_spikes += vessel_stats.speed_spikes;
    out.insert(out.end(), cleaned.begin(), cleaned.end());
  }
  total.kept = out.size();
  if (stats != nullptr) *stats = total;
  return out;
}

}  // namespace habit::ais
