// Canonical signed digit (CSD) decomposition of multiplier constants.
//
// Logic synthesis implements `x * C` for a literal C as a tree of shifted
// additions/subtractions. The CSD recoding of C (digits in {-1, 0, +1} with
// no two adjacent non-zeros) minimizes the number of non-zero digits and
// hence the number of adders; a balanced tree over D non-zero digits has
// depth ceil(log2(D)). The cost model uses these two numbers for delay and
// area of constant multipliers when DSP mapping is off (maxdsp=0), which is
// exactly the normalization the paper applies for its area metric A.
#pragma once

#include <cstdint>
#include <vector>

namespace hlshc::synth {

struct CsdDigit {
  int shift = 0;   ///< power of two
  int sign = +1;   ///< +1 or -1
};

/// CSD recoding of `value` (must fit in 63 bits in magnitude). The digits
/// are returned LSB-first. For value == 0 the result is empty.
std::vector<CsdDigit> csd_decompose(int64_t value);

/// Number of non-zero digits in the CSD form.
int csd_nonzero_digits(int64_t value);

/// Plain binary (non-recoded) non-zero bit count — the naive shift-add
/// implementation; used by the cost-model ablation bench.
int binary_nonzero_digits(int64_t value);

}  // namespace hlshc::synth
