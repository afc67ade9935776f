#include "ais/segment.h"

#include <map>
#include <set>
#include <unordered_set>

#include "hexgrid/hexgrid.h"

namespace habit::ais {

namespace {

// True iff the trip stays within `max_cells` distinct hex cells at `res`.
bool IsTinyTrip(const Trip& trip, size_t max_cells, int res) {
  if (res < 0) return false;
  std::unordered_set<hex::CellId> cells;
  for (const AisRecord& r : trip.points) {
    cells.insert(hex::LatLngToCell(r.pos, res));
    if (cells.size() > max_cells) return false;
  }
  return true;
}

}  // namespace

std::vector<Trip> SegmentVessel(const std::vector<AisRecord>& cleaned,
                                const SegmentOptions& options,
                                int64_t* next_trip_id) {
  std::vector<Trip> trips;
  if (cleaned.empty()) return trips;

  const std::vector<Event> events = AnnotateEvents(cleaned, options.events);

  // Split points: indices *after which* a new trip starts, plus ranges of
  // stationary periods to exclude. We build a per-record label: moving or
  // excluded (inside a stop), and cut boundaries at gaps and stop edges.
  std::vector<bool> cut_after(cleaned.size(), false);
  std::vector<bool> excluded(cleaned.size(), false);

  // Mark stop intervals as excluded: from each kStopStart to its kStopEnd
  // (or stream end). Records at the boundary stay: the start location of a
  // stop ends the current trip; the last stop location begins the next.
  size_t stop_open = cleaned.size();  // sentinel: no open stop
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kStopStart:
        stop_open = e.record_index;
        if (e.record_index > 0) cut_after[e.record_index] = true;
        break;
      case EventKind::kStopEnd:
        if (stop_open < cleaned.size()) {
          for (size_t i = stop_open + 1; i < e.record_index; ++i) {
            excluded[i] = true;
          }
          stop_open = cleaned.size();
        }
        cut_after[e.record_index > 0 ? e.record_index - 1 : 0] = true;
        break;
      case EventKind::kGapStart:
        cut_after[e.record_index] = true;
        break;
      default:
        break;
    }
  }
  if (stop_open < cleaned.size()) {
    for (size_t i = stop_open + 1; i < cleaned.size(); ++i) excluded[i] = true;
  }

  Trip current;
  auto flush = [&]() {
    if (current.points.size() >= options.min_points &&
        !IsTinyTrip(current, options.tiny_trip_max_cells,
                    options.tiny_trip_resolution)) {
      current.trip_id = (*next_trip_id)++;
      current.mmsi = current.points.front().mmsi;
      current.type = current.points.front().type;
      trips.push_back(std::move(current));
    }
    current = Trip{};
  };

  for (size_t i = 0; i < cleaned.size(); ++i) {
    if (!excluded[i]) current.points.push_back(cleaned[i]);
    if (cut_after[i]) flush();
  }
  flush();
  return trips;
}

std::vector<Trip> PreprocessAndSegment(const std::vector<AisRecord>& raw,
                                       const SegmentOptions& options,
                                       CleanStats* clean_stats) {
  std::map<int64_t, std::vector<AisRecord>> by_vessel;
  for (const AisRecord& r : raw) by_vessel[r.mmsi].push_back(r);

  CleanStats total;
  total.input = raw.size();
  std::vector<Trip> trips;
  int64_t next_trip_id = 1;
  for (auto& [mmsi, records] : by_vessel) {
    CleanStats vs;
    const std::vector<AisRecord> cleaned =
        CleanVesselRecords(records, options.clean, &vs);
    total.invalid_coords += vs.invalid_coords;
    total.non_finite_motion += vs.non_finite_motion;
    total.invalid_speed += vs.invalid_speed;
    total.duplicates += vs.duplicates;
    total.out_of_order += vs.out_of_order;
    total.speed_spikes += vs.speed_spikes;
    total.kept += vs.kept;
    std::vector<Trip> vessel_trips =
        SegmentVessel(cleaned, options, &next_trip_id);
    for (Trip& t : vessel_trips) trips.push_back(std::move(t));
  }
  if (clean_stats != nullptr) *clean_stats = total;
  return trips;
}

size_t TotalPoints(const std::vector<Trip>& trips) {
  size_t n = 0;
  for (const Trip& t : trips) n += t.points.size();
  return n;
}

size_t DistinctVessels(const std::vector<Trip>& trips) {
  std::set<int64_t> vessels;
  for (const Trip& t : trips) vessels.insert(t.mmsi);
  return vessels.size();
}

}  // namespace habit::ais
