// Scalar value model for minidb, the in-memory columnar tables that carry
// AIS CSV import/export and the HABIT builder's stage outputs. The paper
// runs its builder in DuckDB; here habit/graph_builder.cc computes the same
// aggregates directly over table columns.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace habit::db {

/// Column data types supported by minidb.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType t);

/// \brief A nullable scalar: null, int64, double, or string.
class Value {
 public:
  Value() : var_(std::monostate{}) {}
  explicit Value(int64_t v) : var_(v) {}
  explicit Value(double v) : var_(v) {}
  explicit Value(std::string v) : var_(std::move(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Text(std::string v) { return Value(std::move(v)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(var_); }
  bool is_int() const { return std::holds_alternative<int64_t>(var_); }
  bool is_double() const { return std::holds_alternative<double>(var_); }
  bool is_string() const { return std::holds_alternative<std::string>(var_); }

  int64_t AsInt() const;
  double AsDouble() const;  ///< ints are widened; strings/null -> NaN
  const std::string& AsString() const;

  /// Equality in SQL semantics except that null == null here.
  bool operator==(const Value& o) const { return var_ == o.var_; }

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> var_;
};

}  // namespace habit::db
