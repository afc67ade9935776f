// Noise filtering for raw AIS streams (Section 3.1): invalid coordinates,
// duplicates, delayed/out-of-order messages, and kinematically impossible
// jumps are removed before trip segmentation.
#pragma once

#include <vector>

#include "ais/ais.h"

namespace habit::ais {

/// \brief Cleaning thresholds.
struct CleanOptions {
  /// Reports implying a speed above this (knots) between fixes are dropped.
  double max_implied_speed_knots = 80.0;
  /// Reports with SOG above this are considered corrupt.
  double max_sog_knots = 60.0;
  /// Two reports of the same vessel closer than this in time AND space are
  /// duplicates (keep the first).
  int64_t duplicate_window_seconds = 1;
  double duplicate_radius_m = 5.0;
};

/// \brief What the cleaner removed, by reason.
struct CleanStats {
  size_t input = 0;
  size_t invalid_coords = 0;
  /// NaN or infinite sog/cog (CSV readers parse "nan" and "inf").
  size_t non_finite_motion = 0;
  size_t invalid_speed = 0;
  size_t duplicates = 0;
  size_t out_of_order = 0;
  size_t speed_spikes = 0;
  size_t kept = 0;
};

/// \brief Cleans one vessel's reports, which must belong to a single MMSI.
///
/// Sorting is NOT applied: delayed messages that would move time backwards
/// are dropped (the paper treats sequence-distorting messages as noise).
/// Returns the surviving records in time order; `stats` (optional) receives
/// removal counts.
std::vector<AisRecord> CleanVesselRecords(const std::vector<AisRecord>& input,
                                          const CleanOptions& options = {},
                                          CleanStats* stats = nullptr);

/// Cleans a mixed stream: groups by MMSI (preserving per-vessel order),
/// cleans each vessel, and concatenates the results grouped by vessel.
std::vector<AisRecord> CleanStream(const std::vector<AisRecord>& input,
                                   const CleanOptions& options = {},
                                   CleanStats* stats = nullptr);

}  // namespace habit::ais
