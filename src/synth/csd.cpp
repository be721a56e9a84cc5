#include "synth/csd.hpp"

#include <cmath>
#include <cstdlib>

#include "base/check.hpp"

namespace hlshc::synth {

std::vector<CsdDigit> csd_decompose(int64_t value) {
  std::vector<CsdDigit> digits;
  bool negative = value < 0;
  uint64_t v = negative ? static_cast<uint64_t>(-value)
                        : static_cast<uint64_t>(value);
  // Standard CSD recoding: scan LSB to MSB; a run of ones ...0111...1 is
  // replaced by +2^(k+run) - 2^k.
  int shift = 0;
  while (v != 0) {
    if (v & 1) {
      // Look at the next bit to decide between +1 here and -1 with carry.
      int sign = ((v & 3) == 3) ? -1 : +1;
      digits.push_back({shift, negative ? -sign : sign});
      if (sign < 0) v += 1;  // carry propagates
    }
    v >>= 1;
    ++shift;
    HLSHC_CHECK(shift < 80, "csd_decompose runaway");
  }
  return digits;
}

int csd_nonzero_digits(int64_t value) {
  return static_cast<int>(csd_decompose(value).size());
}

int binary_nonzero_digits(int64_t value) {
  uint64_t v = value < 0 ? static_cast<uint64_t>(-value)
                         : static_cast<uint64_t>(value);
  int count = 0;
  while (v != 0) {
    count += static_cast<int>(v & 1);
    v >>= 1;
  }
  return count;
}

}  // namespace hlshc::synth
