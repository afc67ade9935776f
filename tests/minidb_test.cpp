// Tests for minidb: value semantics, columnar storage and CSV round-trips.
#include <gtest/gtest.h>

#include <cmath>

#include "minidb/csv.h"

namespace habit::db {
namespace {

Table MakeAisLikeTable() {
  // trip_id, ts, cell, sog
  Table t(Schema{{"trip_id", DataType::kInt64},
                 {"ts", DataType::kInt64},
                 {"cell", DataType::kInt64},
                 {"sog", DataType::kDouble}});
  const int64_t big = int64_t(0x9000000000000000ULL);  // high-bit cell ids
  struct Row {
    int64_t trip, ts, cell;
    double sog;
  };
  const Row rows[] = {
      {1, 100, big + 1, 10.0}, {1, 200, big + 2, 11.0},
      {1, 300, big + 2, 12.0}, {1, 400, big + 3, 13.0},
      {2, 150, big + 9, 8.0},  {2, 250, big + 8, 7.5},
      {2, 350, big + 7, 7.0},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::Int(r.trip), Value::Int(r.ts),
                             Value::Int(r.cell), Value::Real(r.sog)})
                    .ok());
  }
  return t;
}

TEST(ValueTest, TypePredicatesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Int(5).is_int());
  EXPECT_TRUE(Value::Real(2.5).is_double());
  EXPECT_TRUE(Value::Text("x").is_string());
  EXPECT_EQ(Value::Int(5).AsDouble(), 5.0);
  EXPECT_EQ(Value::Real(2.9).AsInt(), 2);
  EXPECT_TRUE(std::isnan(Value::Text("x").AsDouble()));
}

TEST(ColumnTest, TypedAppendAndNulls) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.5);
  c.AppendInt(2);  // widened
  c.AppendNull();
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_FALSE(c.IsValid(2));
  EXPECT_DOUBLE_EQ(c.GetDouble(1), 2.0);
  EXPECT_TRUE(c.GetValue(2).is_null());
}

TEST(ColumnTest, StringColumnCoercions) {
  Column c(DataType::kString);
  c.AppendString("hi");
  c.AppendInt(42);  // stringified
  EXPECT_EQ(c.GetString(1), "42");
  Column n(DataType::kInt64);
  n.AppendString("not-a-number");  // becomes NULL, no implicit parsing
  EXPECT_TRUE(n.GetValue(0).is_null());
}

TEST(TableTest, SchemaAndRowAccess) {
  Table t = MakeAisLikeTable();
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_EQ(t.schema().FieldIndex("cell"), 2);
  EXPECT_EQ(t.schema().FieldIndex("nope"), -1);
  EXPECT_FALSE(t.GetColumn("nope").ok());
  const auto row = t.GetRow(0);
  EXPECT_EQ(row[0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(row[3].AsDouble(), 10.0);
  EXPECT_FALSE(t.AppendRow({Value::Int(1)}).ok());  // arity mismatch
  EXPECT_GT(t.SizeBytes(), 0u);
}

TEST(CsvTest, RoundTripWithTypesAndNulls) {
  Table t(Schema{{"id", DataType::kInt64},
                 {"x", DataType::kDouble},
                 {"name", DataType::kString}});
  ASSERT_TRUE(t.AppendRow({Value::Int(1), Value::Real(2.5),
                           Value::Text("alpha")}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Int(2), Value::Null(), Value::Text("has,comma")})
          .ok());
  const std::string csv = ToCsvString(t);
  auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok());
  const Table& p = parsed.value();
  ASSERT_EQ(p.num_rows(), 2u);
  EXPECT_EQ(p.GetColumn("id").value()->GetInt(1), 2);
  EXPECT_FALSE(p.GetColumn("x").value()->IsValid(1));
  EXPECT_EQ(p.GetColumn("name").value()->GetString(1), "has,comma");
}

TEST(CsvTest, TypeInference) {
  auto parsed = ParseCsv("a,b,c\n1,1.5,x\n2,2.5,y\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().schema().type(0), DataType::kInt64);
  EXPECT_EQ(parsed.value().schema().type(1), DataType::kDouble);
  EXPECT_EQ(parsed.value().schema().type(2), DataType::kString);
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());  // arity mismatch
  EXPECT_FALSE(ReadCsv("/nonexistent/file.csv").ok());
}

TEST(CsvTest, QuotedFieldsWithEscapes) {
  auto parsed = ParseCsv("s\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetColumn("s").value()->GetString(0),
            "say \"hi\"");
}

TEST(StatusTest, CodesAndMacros) {
  EXPECT_TRUE(Status::OK().ok());
  const Status s = Status::NotFound("thing");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: thing");
  Result<int> r = 5;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  Result<int> bad = Status::Internal("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.ValueOr(-1), -1);
}

}  // namespace
}  // namespace habit::db
