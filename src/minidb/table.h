// Columnar table storage: schema, typed columns with validity bitmaps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "minidb/value.h"

namespace habit::db {

/// \brief A single typed column with a validity bitmap.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  /// Appends any Value; numeric widening/narrowing follows the column type.
  void AppendValue(const Value& v);

  bool IsValid(size_t row) const { return valid_[row]; }
  int64_t GetInt(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const;
  const std::string& GetString(size_t row) const { return strings_[row]; }
  Value GetValue(size_t row) const;

  /// Approximate heap footprint in bytes (used for storage accounting).
  size_t SizeBytes() const;

 private:
  DataType type_;
  std::vector<bool> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

/// \brief Ordered (name, type) column descriptors.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<std::pair<std::string, DataType>> fields);

  void AddField(const std::string& name, DataType type);
  size_t num_fields() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }
  DataType type(size_t i) const { return types_[i]; }

  /// Index of the named field, or -1.
  int FieldIndex(const std::string& name) const;

  bool operator==(const Schema& o) const {
    return names_ == o.names_ && types_ == o.types_;
  }

 private:
  std::vector<std::string> names_;
  std::vector<DataType> types_;
};

/// \brief An in-memory columnar table.
class Table {
 public:
  Table() = default;
  explicit Table(const Schema& schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Column by name; error if absent.
  Result<const Column*> GetColumn(const std::string& name) const;

  /// Appends a full row. Must match schema arity; values are coerced to the
  /// column types where possible.
  Status AppendRow(const std::vector<Value>& row);

  /// Row as a vector of Values (for tests and debugging).
  std::vector<Value> GetRow(size_t row) const;

  /// Approximate heap footprint in bytes.
  size_t SizeBytes() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace habit::db
