#include "idct/block.hpp"

#include <sstream>

namespace hlshc::idct {

std::string to_string(const Block& b) {
  std::ostringstream os;
  for (int r = 0; r < kBlockDim; ++r) {
    for (int c = 0; c < kBlockDim; ++c) {
      os << at(b, r, c);
      if (c + 1 < kBlockDim) os << '\t';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace hlshc::idct
