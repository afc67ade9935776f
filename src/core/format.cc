#include "core/format.h"

#include <charconv>

namespace habit::core {

char* FormatDouble(double d, char* first) {
  char* const last = first + kMaxDoubleChars;
  char* end = first;
  for (const int precision : {15, 16, 17}) {
    end = std::to_chars(first, last, d, std::chars_format::general, precision)
              .ptr;
    double back = 0;
    const auto read = std::from_chars(first, end, back);
    if (read.ec == std::errc() && back == d) break;
  }
  return end;
}

std::string FormatDouble(double d) {
  char buf[kMaxDoubleChars];
  return std::string(buf, FormatDouble(d, buf));
}

}  // namespace habit::core
