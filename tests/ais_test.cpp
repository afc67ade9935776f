// Tests for the AIS preprocessing module: cleaning filters, mobility-event
// annotation, and trip segmentation (Section 3.1 semantics).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ais/clean.h"
#include "ais/events.h"
#include "ais/io.h"
#include "ais/segment.h"
#include "geo/latlng.h"

namespace habit::ais {
namespace {

AisRecord Rec(int64_t ts, double lat, double lng, double sog,
              double cog = 0.0, int64_t mmsi = 1) {
  AisRecord r;
  r.mmsi = mmsi;
  r.ts = ts;
  r.pos = {lat, lng};
  r.sog = sog;
  r.cog = cog;
  r.type = VesselType::kPassenger;
  return r;
}

// A cruise leg: reports every `step` seconds moving north at `sog` knots.
std::vector<AisRecord> Cruise(int64_t t0, int n, double sog = 12.0,
                              int64_t step = 60, double lat0 = 55.0,
                              int64_t mmsi = 1) {
  std::vector<AisRecord> out;
  const double mps = geo::KnotsToMps(sog);
  for (int i = 0; i < n; ++i) {
    const double north_m = mps * static_cast<double>(i * step);
    out.push_back(Rec(t0 + i * step, lat0 + north_m / 111195.0, 11.0, sog, 0.0,
                      mmsi));
  }
  return out;
}

TEST(CleanTest, DropsInvalidCoordinates) {
  std::vector<AisRecord> input{Rec(0, 55, 11, 10),
                               Rec(60, 95, 11, 10),      // bad lat
                               Rec(120, 55, 200, 10),    // bad lng
                               Rec(180, 55.02, 11, 10)};
  CleanStats stats;
  const auto out = CleanVesselRecords(input, {}, &stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.invalid_coords, 2u);
}

TEST(CleanTest, DropsCorruptSpeeds) {
  std::vector<AisRecord> input{Rec(0, 55, 11, 10), Rec(60, 55.01, 11, 75),
                               Rec(120, 55.02, 11, -1)};
  CleanStats stats;
  const auto out = CleanVesselRecords(input, {}, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.invalid_speed, 2u);
}

TEST(CleanTest, DropsNonFiniteSogAndCogReadFromCsv) {
  // strtod accepts "nan" and "inf", so such rows survive CSV parsing; NaN
  // fails both sog range checks, and cog has none.
  const std::string path =
      (std::filesystem::temp_directory_path() / "clean_non_finite.csv")
          .string();
  {
    std::ofstream csv(path);
    csv << "mmsi,ts,lat,lon,sog,cog,type\n"
        << "1,0,55.0,11.0,10.0,0.0,cargo\n"
        << "1,60,55.001,11.0,nan,0.0,cargo\n"
        << "1,120,55.002,11.0,10.0,inf,cargo\n"
        << "1,180,55.003,11.0,10.0,0.0,cargo\n";
  }
  auto records = ReadAisCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 4u);
  CleanStats stats;
  const auto out = CleanStream(records.value(), {}, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ts, 0);
  EXPECT_EQ(out[1].ts, 180);
  EXPECT_EQ(stats.non_finite_motion, 2u);
  EXPECT_EQ(stats.invalid_speed, 0u);
}

TEST(CleanTest, DropsOutOfOrderMessages) {
  std::vector<AisRecord> input{Rec(100, 55, 11, 10), Rec(50, 55.001, 11, 10),
                               Rec(160, 55.002, 11, 10)};
  CleanStats stats;
  const auto out = CleanVesselRecords(input, {}, &stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.out_of_order, 1u);
}

TEST(CleanTest, DropsDuplicates) {
  AisRecord a = Rec(100, 55, 11, 10);
  AisRecord dup = a;  // same ts, same position
  std::vector<AisRecord> input{a, dup, Rec(160, 55.001, 11, 10)};
  CleanStats stats;
  const auto out = CleanVesselRecords(input, {}, &stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.duplicates, 1u);
}

TEST(CleanTest, DropsTeleportSpikes) {
  // 50 km in 60 s is ~1600 knots.
  std::vector<AisRecord> input{Rec(0, 55, 11, 10), Rec(60, 55.45, 11, 10),
                               Rec(120, 55.001, 11, 10)};
  CleanStats stats;
  const auto out = CleanVesselRecords(input, {}, &stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.speed_spikes, 1u);
  // The record after the spike survives relative to the last good fix.
  EXPECT_DOUBLE_EQ(out[1].pos.lat, 55.001);
}

TEST(CleanTest, SameTimestampDifferentPositionIsSpike) {
  std::vector<AisRecord> input{Rec(100, 55, 11, 10), Rec(100, 55.2, 11, 10)};
  CleanStats stats;
  const auto out = CleanVesselRecords(input, {}, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.speed_spikes, 1u);
}

TEST(CleanTest, CleanStreamGroupsByVessel) {
  std::vector<AisRecord> input;
  auto v1 = Cruise(0, 5, 12.0, 60, 55.0, /*mmsi=*/1);
  auto v2 = Cruise(0, 5, 12.0, 60, 56.0, /*mmsi=*/2);
  // Interleave.
  for (size_t i = 0; i < 5; ++i) {
    input.push_back(v1[i]);
    input.push_back(v2[i]);
  }
  CleanStats stats;
  const auto out = CleanStream(input, {}, &stats);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(stats.kept, 10u);
  // Grouped by vessel, each vessel's records in time order.
  EXPECT_EQ(out[0].mmsi, 1);
  EXPECT_EQ(out[4].mmsi, 1);
  EXPECT_EQ(out[5].mmsi, 2);
}

TEST(EventsTest, DetectsCommunicationGap) {
  auto records = Cruise(0, 3);
  auto later = Cruise(3 * 60 + 45 * 60, 3, 12.0, 60,
                      records.back().pos.lat + 0.02);
  records.insert(records.end(), later.begin(), later.end());
  const auto events = AnnotateEvents(records);
  int gap_starts = 0, gap_ends = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kGapStart) {
      ++gap_starts;
      EXPECT_EQ(e.record_index, 2u);
    }
    if (e.kind == EventKind::kGapEnd) {
      ++gap_ends;
      EXPECT_EQ(e.record_index, 3u);
    }
  }
  EXPECT_EQ(gap_starts, 1);
  EXPECT_EQ(gap_ends, 1);
}

TEST(EventsTest, DetectsStopStartAndEnd) {
  std::vector<AisRecord> records = Cruise(0, 4);
  const double lat = records.back().pos.lat;
  const int64_t t0 = records.back().ts;
  // Stationary for 20 minutes (sog 0.2 < 0.5).
  for (int i = 1; i <= 20; ++i) {
    records.push_back(Rec(t0 + i * 60, lat, 11.0, 0.2));
  }
  // Departs again.
  auto depart = Cruise(t0 + 21 * 60, 4, 12.0, 60, lat);
  records.insert(records.end(), depart.begin(), depart.end());
  const auto events = AnnotateEvents(records);
  bool has_start = false, has_end = false;
  for (const Event& e : events) {
    if (e.kind == EventKind::kStopStart) {
      has_start = true;
      EXPECT_EQ(e.record_index, 4u);  // first stationary record
    }
    if (e.kind == EventKind::kStopEnd) {
      has_end = true;
      EXPECT_EQ(e.record_index, 23u);  // last stationary record
    }
  }
  EXPECT_TRUE(has_start);
  EXPECT_TRUE(has_end);
}

TEST(EventsTest, BriefSlowdownIsNotAStop) {
  std::vector<AisRecord> records = Cruise(0, 4);
  const double lat = records.back().pos.lat;
  records.push_back(Rec(4 * 60, lat, 11.0, 0.2));  // one slow fix
  auto resume = Cruise(5 * 60, 4, 12.0, 60, lat);
  records.insert(records.end(), resume.begin(), resume.end());
  for (const Event& e : AnnotateEvents(records)) {
    EXPECT_NE(e.kind, EventKind::kStopStart);
  }
}

TEST(EventsTest, DetectsTurningPoint) {
  std::vector<AisRecord> records;
  records.push_back(Rec(0, 55.0, 11.0, 12, 0));
  records.push_back(Rec(60, 55.01, 11.0, 12, 0));
  records.push_back(Rec(120, 55.01, 11.02, 12, 90));  // hard turn east
  bool turn = false;
  for (const Event& e : AnnotateEvents(records)) {
    if (e.kind == EventKind::kTurningPoint) {
      turn = true;
      EXPECT_EQ(e.record_index, 2u);
    }
  }
  EXPECT_TRUE(turn);
}

TEST(EventsTest, DetectsSpeedChangeAndSlowMotion) {
  std::vector<AisRecord> records;
  records.push_back(Rec(0, 55.0, 11.0, 12));
  records.push_back(Rec(60, 55.005, 11.0, 12));
  records.push_back(Rec(120, 55.008, 11.0, 4));  // slow + speed change
  bool slow = false, change = false;
  for (const Event& e : AnnotateEvents(records)) {
    if (e.kind == EventKind::kSlowMotion) slow = true;
    if (e.kind == EventKind::kSpeedChange) change = true;
  }
  EXPECT_TRUE(slow);
  EXPECT_TRUE(change);
}

TEST(EventsTest, EmptyInput) {
  EXPECT_TRUE(AnnotateEvents({}).empty());
}

TEST(SegmentTest, GapSplitsTrips) {
  // Two legs separated by a 45-minute silence, plus enough points per leg.
  auto records = Cruise(0, 30);
  auto later = Cruise(30 * 60 + 45 * 60, 30, 12.0, 60,
                      records.back().pos.lat + 0.05);
  records.insert(records.end(), later.begin(), later.end());
  SegmentOptions options;
  options.tiny_trip_resolution = -1;  // disable for this synthetic check
  int64_t next_id = 1;
  const auto trips = SegmentVessel(records, options, &next_id);
  ASSERT_EQ(trips.size(), 2u);
  EXPECT_EQ(trips[0].points.size(), 30u);
  EXPECT_EQ(trips[1].points.size(), 30u);
  EXPECT_EQ(trips[0].trip_id, 1);
  EXPECT_EQ(trips[1].trip_id, 2);
}

TEST(SegmentTest, StopSplitsTripsAndExcludesStationaryInterior) {
  auto records = Cruise(0, 30);
  const double lat = records.back().pos.lat;
  const int64_t t0 = records.back().ts;
  for (int i = 1; i <= 30; ++i) {
    records.push_back(Rec(t0 + i * 60, lat, 11.0, 0.2));
  }
  auto depart = Cruise(t0 + 31 * 60, 30, 12.0, 60, lat);
  records.insert(records.end(), depart.begin(), depart.end());
  SegmentOptions options;
  options.tiny_trip_resolution = -1;
  int64_t next_id = 1;
  const auto trips = SegmentVessel(records, options, &next_id);
  ASSERT_EQ(trips.size(), 2u);
  // No stationary (interior) records inside either trip.
  for (const Trip& t : trips) {
    size_t stationary = 0;
    for (const AisRecord& r : t.points) {
      if (r.sog < 0.5) ++stationary;
    }
    EXPECT_LE(stationary, 1u);  // at most the boundary record
  }
}

TEST(SegmentTest, TinyTripsDiscarded) {
  // A vessel drifting within a few meters: one cell at res 9.
  std::vector<AisRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(Rec(i * 60, 55.0 + i * 1e-6, 11.0, 1.0));
  }
  SegmentOptions options;  // tiny-trip filter on (res 9, <=2 cells)
  int64_t next_id = 1;
  EXPECT_TRUE(SegmentVessel(records, options, &next_id).empty());
}

TEST(SegmentTest, MinPointsEnforced) {
  auto records = Cruise(0, 3);  // below default min_points=4
  SegmentOptions options;
  options.tiny_trip_resolution = -1;
  int64_t next_id = 1;
  EXPECT_TRUE(SegmentVessel(records, options, &next_id).empty());
}

TEST(SegmentTest, PreprocessAndSegmentEndToEnd) {
  std::vector<AisRecord> raw;
  for (int64_t mmsi = 1; mmsi <= 3; ++mmsi) {
    auto leg = Cruise(0, 40, 12.0, 60, 54.5 + 0.3 * static_cast<double>(mmsi),
                      mmsi);
    raw.insert(raw.end(), leg.begin(), leg.end());
  }
  // Add noise: an invalid coordinate and an out-of-order record.
  raw.push_back(Rec(999999, 95.0, 11.0, 10.0, 0.0, 1));
  CleanStats stats;
  const auto trips = PreprocessAndSegment(raw, {}, &stats);
  EXPECT_EQ(trips.size(), 3u);
  EXPECT_EQ(DistinctVessels(trips), 3u);
  EXPECT_EQ(TotalPoints(trips), 120u);
  EXPECT_EQ(stats.invalid_coords, 1u);
  // Trip ids unique and ascending.
  for (size_t i = 1; i < trips.size(); ++i) {
    EXPECT_LT(trips[i - 1].trip_id, trips[i].trip_id);
  }
}

TEST(TripTest, HelpersBehave) {
  Trip t;
  EXPECT_EQ(t.DurationSeconds(), 0);
  t.points = Cruise(100, 5);
  EXPECT_EQ(t.DurationSeconds(), 4 * 60);
  EXPECT_EQ(t.ToPolyline().size(), 5u);
  EXPECT_STREQ(VesselTypeToString(VesselType::kTanker), "tanker");
}

}  // namespace
}  // namespace habit::ais
