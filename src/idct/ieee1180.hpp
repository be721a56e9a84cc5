// IEEE Std 1180-1990 compliance harness.
//
// The standard accepts an 8x8 IDCT implementation if, over 10,000 random
// coefficient blocks derived from spatial data in a given range (and again
// with all signs flipped), the implementation's output stays within these
// bounds of the double-precision reference IDCT:
//
//   * peak pixel error            |e|      <= 1 for every pixel,
//   * per-position mean square    pmse     <= 0.06,
//   * overall mean square         omse     <= 0.02,
//   * per-position mean error     |pme|    <= 0.015,
//   * overall mean error          |ome|    <= 0.0015,
//   * the all-zero block must produce all zeros.
//
// The mandated input ranges are (L,H) = (256,255), (5,5) and (300,300),
// run with both sign polarities. The random generator is the standard's
// own LCG (base/rng.hpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "idct/block.hpp"

namespace hlshc::idct {

/// Candidate IDCT under test: consumes a 12-bit coefficient block, returns
/// a 9-bit sample block.
using IdctFunction = std::function<Block(const Block&)>;

struct ComplianceCase {
  long range_low = 256;   ///< L: inputs drawn from [-L, H]
  long range_high = 255;  ///< H
  int sign = +1;          ///< +1, or -1 for the sign-flipped run
  int blocks = 10000;
  long seed = 1;
};

struct ComplianceResult {
  ComplianceCase config;
  double peak_error = 0.0;  ///< max |e| over all pixels/blocks
  double omse = 0.0;        ///< overall mean square error
  double ome = 0.0;         ///< overall mean error
  double worst_pmse = 0.0;  ///< worst per-position mean square error
  double worst_pme = 0.0;   ///< worst per-position |mean error|
  bool zero_in_zero_out = false;
  bool pass = false;
  std::string failure;  ///< empty when pass
};

/// Runs one (range, sign) case.
ComplianceResult run_compliance_case(const IdctFunction& idct,
                                     const ComplianceCase& config);

/// Runs the full standard matrix: ranges {(256,255),(5,5),(300,300)} x
/// signs {+1,-1}. `blocks` can be lowered for quick test runs (the
/// standard value is 10,000).
std::vector<ComplianceResult> run_compliance_suite(const IdctFunction& idct,
                                                   int blocks = 10000);

}  // namespace hlshc::idct
