#include "core/diff.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/check.hpp"
#include "base/strings.hpp"

namespace hlshc::core {

namespace {

std::vector<std::string> significant_lines(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& line : split_lines(text)) {
    std::string_view t = trim(line);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

}  // namespace

DiffCount diff_lines(const std::string& before, const std::string& after) {
  std::vector<std::string> a = significant_lines(before);
  std::vector<std::string> b = significant_lines(after);
  const size_t n = a.size(), m = b.size();
  // Classic LCS table; the sources here are a few hundred lines, so the
  // quadratic table is immaterial.
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = n; i-- > 0;)
    for (size_t j = m; j-- > 0;)
      lcs[i][j] = a[i] == b[j]
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
  DiffCount d;
  d.removed = static_cast<int>(n) - lcs[0][0];
  d.added = static_cast<int>(m) - lcs[0][0];
  return d;
}

DiffCount diff_data_files(const std::string& before_rel,
                          const std::string& after_rel) {
  auto read = [](const std::string& rel) {
    std::ifstream in(data_path(rel));
    HLSHC_CHECK(in.good(), "cannot open data file " << rel);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  return diff_lines(read(before_rel), read(after_rel));
}

}  // namespace hlshc::core
