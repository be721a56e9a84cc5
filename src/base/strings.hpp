// Small string utilities shared by the LOC counter, report renderers and
// the HLS frontend. Kept header-only; everything operates on string_view.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hlshc {

/// Split on a single separator character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split into lines, treating both "\n" and "\r\n" as terminators.
std::vector<std::string> split_lines(std::string_view s);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` consists only of ASCII whitespace (or is empty).
bool is_blank(std::string_view s);

/// Fixed-point decimal rendering with `digits` fraction digits ("12.34").
std::string format_fixed(double v, int digits);

/// Thousands-separated integer rendering ("1,182,240").
std::string format_grouped(long long v);

}  // namespace hlshc
