// Line diff for the paper's ΔL metric.
//
// Flexibility (Eq. 3) divides the quality improvement by ΔL = ΔL+ + ΔL-,
// the number of added plus removed lines between the initial and the
// optimized description (code, annotations and parameters alike). We
// compute it with a standard LCS diff over non-blank, non-comment-stripped
// source lines.
#pragma once

#include <string>
#include <vector>

#include "core/loc.hpp"

namespace hlshc::core {

struct DiffCount {
  int added = 0;
  int removed = 0;
  int delta() const { return added + removed; }
};

/// LCS-based line diff of two texts (whitespace-trimmed lines; blank lines
/// ignored, matching how L itself is counted).
DiffCount diff_lines(const std::string& before, const std::string& after);

/// Diff of two files under data/.
DiffCount diff_data_files(const std::string& before_rel,
                          const std::string& after_rel);

}  // namespace hlshc::core
