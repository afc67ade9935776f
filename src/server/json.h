// Minimal JSON for the line-protocol server: a dynamically typed value,
// a recursive-descent parser hardened for network input (depth cap,
// strict UTF-16 escape handling, full-input consumption, no exceptions),
// and a serializer whose number formatting round-trips doubles exactly
// (core::FormatDouble: the shortest of %.15g/%.16g/%.17g that reads back
// to the same bits) — the protocol's bit-identity guarantee rides on
// that. Numbers convert with <charconv> both ways.
//
// Scope is deliberately the protocol's needs, not a general library:
// numbers are doubles (integers up to 2^53 are exact, which covers unix
// timestamps), object member order is preserved, duplicate keys are
// rejected (a request must never alias two intents — same rule as
// MethodSpec::Parse).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

namespace habit::server {

/// \brief One JSON value (null / bool / number / string / array / object).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b) {
    Json v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static Json Number(double d) {
    Json v;
    v.type_ = Type::kNumber;
    v.number_ = d;
    return v;
  }
  static Json String(std::string s) {
    Json v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
  }
  static Json Array() {
    Json v;
    v.type_ = Type::kArray;
    return v;
  }
  static Json Object() {
    Json v;
    v.type_ = Type::kObject;
    return v;
  }

  /// Parses exactly one JSON document spanning the whole of `text`
  /// (trailing non-whitespace is an error). kInvalidArgument with a byte
  /// offset on malformed input; nesting deeper than `max_depth` is
  /// rejected rather than recursed into, and documents with more than
  /// `max_values` values are rejected rather than materialized — wire
  /// bytes expand ~50-100x into tree nodes ("[1,1,1,...]" at a 4 MiB
  /// frame cap would otherwise heap ~200 MB per frame), so the parser
  /// caps the tree, not just the bytes. The default comfortably fits a
  /// max-size legitimate batch (4096 requests x ~15 values).
  static Result<Json> Parse(std::string_view text, int max_depth = 64,
                            size_t max_values = 262144);

  /// Compact single-line serialization (never contains a raw newline:
  /// control characters are \u-escaped, so a dumped value is always a
  /// valid protocol frame).
  std::string Dump() const;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Array / object builders.
  void Append(Json v) { items_.push_back(std::move(v)); }
  void Set(std::string key, Json v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Serializes a double in the shortest form that re-parses to the same
/// bits: integers below 2^53 as printf's "%.0f", everything else through
/// core::FormatDouble. Non-finite values (never produced by validated
/// responses) serialize as null per JSON's number grammar.
std::string DumpDouble(double d);

}  // namespace habit::server
