#include "base/bitvec.hpp"

#include <sstream>

namespace hlshc {

int BitVec::min_signed_width(int64_t v) {
  // Smallest w with -(2^(w-1)) <= v <= 2^(w-1)-1.
  for (int w = 1; w < 64; ++w) {
    int64_t lo = -(int64_t{1} << (w - 1));
    int64_t hi = (int64_t{1} << (w - 1)) - 1;
    if (v >= lo && v <= hi) return w;
  }
  return 64;
}

std::string BitVec::to_binary_string() const {
  std::string s;
  s.reserve(static_cast<size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

std::string BitVec::to_string() const {
  std::ostringstream os;
  os << width_ << "'d" << value_;
  return os.str();
}

}  // namespace hlshc
