#include "minidb/table.h"

namespace habit::db {

void Column::AppendInt(int64_t v) {
  switch (type_) {
    case DataType::kInt64:
      valid_.push_back(true);
      ints_.push_back(v);
      break;
    case DataType::kDouble:
      AppendDouble(static_cast<double>(v));
      break;
    case DataType::kString:
      AppendString(std::to_string(v));
      break;
  }
}

void Column::AppendDouble(double v) {
  switch (type_) {
    case DataType::kInt64:
      valid_.push_back(true);
      ints_.push_back(static_cast<int64_t>(v));
      break;
    case DataType::kDouble:
      valid_.push_back(true);
      doubles_.push_back(v);
      break;
    case DataType::kString:
      AppendString(std::to_string(v));
      break;
  }
}

void Column::AppendString(std::string v) {
  if (type_ != DataType::kString) {
    // Appending text to a numeric column yields NULL (no implicit parsing).
    AppendNull();
    return;
  }
  valid_.push_back(true);
  strings_.push_back(std::move(v));
}

void Column::AppendNull() {
  valid_.push_back(false);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt(v.AsInt());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.is_string() ? v.AsString() : v.ToString());
      break;
  }
}

double Column::GetDouble(size_t row) const {
  if (type_ == DataType::kInt64) return static_cast<double>(ints_[row]);
  return doubles_[row];
}

Value Column::GetValue(size_t row) const {
  if (!valid_[row]) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int(ints_[row]);
    case DataType::kDouble:
      return Value::Real(doubles_[row]);
    case DataType::kString:
      return Value::Text(strings_[row]);
  }
  return Value::Null();
}

size_t Column::SizeBytes() const {
  size_t bytes = valid_.size() / 8 + ints_.size() * sizeof(int64_t) +
                 doubles_.size() * sizeof(double);
  for (const std::string& s : strings_) bytes += s.capacity() + sizeof(s);
  return bytes;
}

Schema::Schema(std::initializer_list<std::pair<std::string, DataType>> fields) {
  for (const auto& [name, type] : fields) AddField(name, type);
}

void Schema::AddField(const std::string& name, DataType type) {
  names_.push_back(name);
  types_.push_back(type);
}

int Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Table::Table(const Schema& schema) : schema_(schema) {
  columns_.reserve(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    columns_.emplace_back(schema.type(i));
  }
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  const int idx = schema_.FieldIndex(name);
  if (idx < 0) return Status::NotFound("no column named '" + name + "'");
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < row.size(); ++i) columns_[i].AppendValue(row[i]);
  return Status::OK();
}

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.GetValue(row));
  return out;
}

size_t Table::SizeBytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.SizeBytes();
  return bytes;
}

}  // namespace habit::db
