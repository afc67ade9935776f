#include "minidb/value.h"

#include <limits>

#include "core/format.h"

namespace habit::db {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt() const {
  if (is_int()) return std::get<int64_t>(var_);
  if (is_double()) return static_cast<int64_t>(std::get<double>(var_));
  return 0;
}

double Value::AsDouble() const {
  if (is_double()) return std::get<double>(var_);
  if (is_int()) return static_cast<double>(std::get<int64_t>(var_));
  return std::numeric_limits<double>::quiet_NaN();
}

const std::string& Value::AsString() const {
  static const std::string empty;
  if (is_string()) return std::get<std::string>(var_);
  return empty;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<int64_t>(var_));
  if (is_double()) return core::FormatDouble(std::get<double>(var_));
  return std::get<std::string>(var_);
}

}  // namespace habit::db
