#include "server/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "core/format.h"

namespace habit::server {

namespace {

/// Recursive-descent parser over a string_view. Network-facing: every
/// branch fails closed with a byte offset, nothing throws, and recursion
/// is bounded by max_depth so a frame of 10k '[' cannot blow the stack.
class Parser {
 public:
  Parser(std::string_view text, int max_depth, size_t max_values)
      : text_(text), max_depth_(max_depth), max_values_(max_values) {}

  Result<Json> Run() {
    SkipWs();
    HABIT_ASSIGN_OR_RETURN(Json v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    if (++values_ > max_values_) return Error("document has too many values");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        HABIT_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json::String(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) return Json::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeWord("false")) return Json::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeWord("null")) return Json::Null();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json obj = Json::Object();
    SkipWs();
    if (Consume('}')) return obj;
    // Hash set, not a scan of prior members: a frame packed with distinct
    // keys must parse in O(n), or duplicate detection itself becomes a
    // CPU-exhaustion vector on a network-facing parser.
    std::unordered_set<std::string> seen;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      HABIT_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!seen.insert(key).second) {
        return Error("duplicate object key '" + key + "'");
      }
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWs();
      HABIT_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json arr = Json::Array();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      SkipWs();
      HABIT_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // JSON's number grammar is a subset of from_chars's: validate the
    // shape first (from_chars alone would accept "inf", "nan", "1."),
    // then convert the validated span in place.
    size_t int_digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++int_digits;
    }
    if (int_digits == 0) return Error("invalid number");
    if (int_digits > 1 && text_[start + (text_[start] == '-' ? 1 : 0)] == '0') {
      return Error("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return Error("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++exp;
      }
      if (exp == 0) return Error("digits required in exponent");
    }
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double v = 0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports overflow and underflow alike; strtod tells
      // them apart (inf is refused below, "1e-400" reads as a signed 0).
      const std::string token(first, last);
      // lint: raw-parse(this IS the JSON number parser; span validated)
      v = std::strtod(token.c_str(), nullptr);
    } else if (ec != std::errc() || end != last) {
      return Error("invalid number");
    }
    if (!std::isfinite(v)) return Error("number out of range");
    return Json::Number(v);
  }

  // Appends `cp` to `out` as UTF-8 (cp <= 0x10FFFF by construction).
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp <= 0x7F) {
      out->push_back(static_cast<char>(cp));
    } else if (cp <= 0x7FF) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp <= 0xFFFF) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    return v;
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          HABIT_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            HABIT_ASSIGN_OR_RETURN(const uint32_t lo, ParseHex4());
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  std::string_view text_;
  int max_depth_;
  size_t max_values_;
  size_t values_ = 0;
  size_t pos_ = 0;
};

// DumpDouble into the kMaxDoubleChars bytes at `first`; returns one past
// the last character written.
char* WriteNumber(double d, char* first) {
  static constexpr char kNull[] = "null";
  if (!std::isfinite(d)) return std::copy(kNull, kNull + 4, first);
  // Integers within the exact-double range print without an exponent or
  // trailing ".0" (timestamps, counters), as printf's "%.0f" does.
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    if (d == 0 && std::signbit(d)) *first++ = '-';  // "%.0f" keeps -0's sign
    return std::to_chars(first, first + core::kMaxDoubleChars - 1,
                         static_cast<int64_t>(d))
        .ptr;
  }
  return core::FormatDouble(d, first);
}

void DumpString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void DumpValue(const Json& v, std::string* out) {
  switch (v.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += v.bool_value() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      char buf[core::kMaxDoubleChars];
      out->append(buf, WriteNumber(v.number_value(), buf));
      break;
    }
    case Json::Type::kString:
      DumpString(v.string_value(), out);
      break;
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : v.items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpValue(item, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        DumpString(key, out);
        out->push_back(':');
        DumpValue(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string DumpDouble(double d) {
  char buf[core::kMaxDoubleChars];
  return std::string(buf, WriteNumber(d, buf));
}

Result<Json> Json::Parse(std::string_view text, int max_depth,
                         size_t max_values) {
  return Parser(text, max_depth, max_values).Run();
}

std::string Json::Dump() const {
  std::string out;
  DumpValue(*this, &out);
  return out;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace habit::server
