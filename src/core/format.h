// The one double formatter: the JSON protocol's numbers (server::DumpDouble)
// and minidb's CSV cells (db::Value::ToString) both print through it, so
// the wire and the files cannot drift apart.
#pragma once

#include <cstddef>
#include <string>

namespace habit::core {

/// Room FormatDouble needs: "-2.2250738585072014e-308" is 24 characters.
inline constexpr size_t kMaxDoubleChars = 32;

/// Writes `d` as the shortest of printf's "%.15g", "%.16g" and "%.17g"
/// (C locale) that reads back to the same double, into the
/// kMaxDoubleChars bytes at `first`; returns one past the last character
/// written (no terminator). Formatting and the read-back check use
/// <charconv>, whose precision form the standard defines as printf's, so
/// the text is the same as the snprintf/strtod loop this replaced.
/// Non-finite values print as "%.17g" does ("inf", "-nan").
char* FormatDouble(double d, char* first);

/// FormatDouble as a string.
std::string FormatDouble(double d);

}  // namespace habit::core
