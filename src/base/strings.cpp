#include "base/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace hlshc {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') {
      size_t end = i;
      if (end > start && s[end - 1] == '\r') --end;
      out.emplace_back(s.substr(start, end - start));
      start = i + 1;
    }
  }
  if (start < s.size()) {
    std::string_view last = s.substr(start);
    if (!last.empty() && last.back() == '\r') last.remove_suffix(1);
    out.emplace_back(last);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_blank(std::string_view s) { return trim(s).empty(); }

std::string format_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string format_grouped(long long v) {
  bool neg = v < 0;
  unsigned long long u = neg ? static_cast<unsigned long long>(-(v + 1)) + 1
                             : static_cast<unsigned long long>(v);
  std::string digits = std::to_string(u);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

}  // namespace hlshc
