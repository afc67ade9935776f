// Tests for the extension features: AIS CSV I/O and hexgrid polyfill.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "ais/io.h"
#include "core/rng.h"
#include "hexgrid/hexgrid.h"

namespace habit {
namespace {

TEST(AisIoTest, RecordsRoundTripThroughTable) {
  std::vector<ais::AisRecord> records;
  for (int i = 0; i < 20; ++i) {
    ais::AisRecord r;
    r.mmsi = 219000000 + i % 3;
    r.ts = 1700000000 + i * 60;
    r.pos = {55.0 + i * 0.01, 11.0 - i * 0.005};
    r.sog = 12.5;
    r.cog = 45.0 + i;
    r.type = i % 2 == 0 ? ais::VesselType::kPassenger
                        : ais::VesselType::kTanker;
    records.push_back(r);
  }
  const db::Table t = ais::RecordsToTable(records);
  EXPECT_EQ(t.num_rows(), records.size());
  size_t skipped = 0;
  auto back = ais::TableToRecords(t, &skipped);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back.value()[i].mmsi, records[i].mmsi);
    EXPECT_EQ(back.value()[i].ts, records[i].ts);
    EXPECT_DOUBLE_EQ(back.value()[i].pos.lat, records[i].pos.lat);
    EXPECT_EQ(back.value()[i].type, records[i].type);
  }
}

TEST(AisIoTest, CsvRoundTrip) {
  std::vector<ais::AisRecord> records;
  ais::AisRecord r;
  r.mmsi = 219000001;
  r.ts = 1700000000;
  r.pos = {55.123456, 11.654321};
  r.sog = 14.2;
  r.cog = 271.5;
  r.type = ais::VesselType::kCargo;
  records.push_back(r);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ais_io_test.csv").string();
  ASSERT_TRUE(ais::WriteAisCsv(records, path).ok());
  auto back = ais::ReadAisCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 1u);
  EXPECT_NEAR(back.value()[0].pos.lat, 55.123456, 1e-9);
  EXPECT_NEAR(back.value()[0].cog, 271.5, 1e-9);
  EXPECT_EQ(back.value()[0].type, ais::VesselType::kCargo);
  std::remove(path.c_str());
}

TEST(AisIoTest, MissingColumnsRejectedAndNullRowsSkipped) {
  db::Table bad(db::Schema{{"mmsi", db::DataType::kInt64}});
  EXPECT_FALSE(ais::TableToRecords(bad).ok());

  db::Table t(db::Schema{{"mmsi", db::DataType::kInt64},
                         {"ts", db::DataType::kInt64},
                         {"lat", db::DataType::kDouble},
                         {"lon", db::DataType::kDouble}});
  ASSERT_TRUE(t.AppendRow({db::Value::Int(1), db::Value::Int(2),
                           db::Value::Real(55.0), db::Value::Real(11.0)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({db::Value::Null(), db::Value::Int(2),
                           db::Value::Real(55.0), db::Value::Real(11.0)})
                  .ok());
  size_t skipped = 0;
  auto records = ais::TableToRecords(t, &skipped);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(), 1u);
  EXPECT_EQ(skipped, 1u);
  // Optional columns default sanely.
  EXPECT_DOUBLE_EQ(records.value()[0].sog, 0.0);
  EXPECT_EQ(records.value()[0].type, ais::VesselType::kOther);
}

TEST(AisIoTest, VesselTypeParsing) {
  EXPECT_EQ(ais::VesselTypeFromString("passenger"),
            ais::VesselType::kPassenger);
  EXPECT_EQ(ais::VesselTypeFromString("fishing"), ais::VesselType::kFishing);
  EXPECT_EQ(ais::VesselTypeFromString("submarine"), ais::VesselType::kOther);
}

TEST(PolyfillTest, CoversSquareRegion) {
  // ~11 km square at lat 55; fill at res 8 (edge ~461 m).
  const std::vector<geo::LatLng> square{
      {55.0, 11.0}, {55.1, 11.0}, {55.1, 11.17}, {55.0, 11.17}};
  const auto cells = hex::PolygonToCells(square, 8);
  ASSERT_GT(cells.size(), 50u);
  // Every returned cell's center is inside the square.
  for (const hex::CellId c : cells) {
    const geo::LatLng center = hex::CellToLatLng(c);
    EXPECT_GE(center.lat, 55.0);
    EXPECT_LE(center.lat, 55.1);
    EXPECT_GE(center.lng, 11.0);
    EXPECT_LE(center.lng, 11.17);
    EXPECT_EQ(hex::Resolution(c), 8);
  }
  // No duplicates.
  std::set<hex::CellId> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
  // Interior points of the square map into returned cells.
  Rng rng(5);
  std::set<hex::CellId> cell_set(cells.begin(), cells.end());
  int inside_hits = 0;
  for (int i = 0; i < 100; ++i) {
    const geo::LatLng p{rng.Uniform(55.01, 55.09), rng.Uniform(11.01, 11.16)};
    if (cell_set.contains(hex::LatLngToCell(p, 8))) ++inside_hits;
  }
  EXPECT_GT(inside_hits, 90);  // boundary cells may be excluded
}

TEST(PolyfillTest, AreaMatchesExpectation) {
  const std::vector<geo::LatLng> square{
      {55.0, 11.0}, {55.1, 11.0}, {55.1, 11.17}, {55.0, 11.17}};
  const auto cells = hex::PolygonToCells(square, 8);
  // Square is ~11.1 km x ~10.8 km ground = ~120 km^2; cells are measured
  // in Mercator area, so scale by sec^2(lat) ~ 3.04.
  const double mercator_area_km2 = 120.0 * 3.04;
  const double cell_km2 = hex::CellAreaM2(8) / 1e6;
  EXPECT_NEAR(static_cast<double>(cells.size()), mercator_area_km2 / cell_km2,
              mercator_area_km2 / cell_km2 * 0.15);
}

TEST(PolyfillTest, DegenerateInputs) {
  EXPECT_TRUE(hex::PolygonToCells({}, 8).empty());
  EXPECT_TRUE(hex::PolygonToCells({{55, 11}, {55.1, 11}}, 8).empty());
  EXPECT_TRUE(
      hex::PolygonToCells({{55, 11}, {55.1, 11}, {55.1, 11.1}}, 99).empty());
}

}  // namespace
}  // namespace habit
