// 8x8 block type shared by all IDCT implementations.
//
// Blocks are stored row-major: element (row r, column c) lives at index
// r*8 + c. Inputs to the IDCT are 12-bit DCT coefficients in
// [-2048, 2047]; outputs are 9-bit samples in [-256, 255], matching the
// paper's interface ("input is a matrix of 12-bit numbers, output is a
// matrix of 9-bit numbers").
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace hlshc::idct {

inline constexpr int kBlockDim = 8;
inline constexpr int kBlockSize = kBlockDim * kBlockDim;

using Block = std::array<int32_t, kBlockSize>;

inline constexpr int kCoeffMin = -2048;  ///< 12-bit signed
inline constexpr int kCoeffMax = 2047;
inline constexpr int kSampleMin = -256;  ///< 9-bit signed
inline constexpr int kSampleMax = 255;

inline int32_t& at(Block& b, int row, int col) {
  return b[static_cast<size_t>(row * kBlockDim + col)];
}
inline int32_t at(const Block& b, int row, int col) {
  return b[static_cast<size_t>(row * kBlockDim + col)];
}

/// Clamp to the 9-bit output range (the reference code's `iclip`).
inline int32_t iclip(int64_t v) {
  return v < kSampleMin ? kSampleMin
                        : (v > kSampleMax ? kSampleMax
                                          : static_cast<int32_t>(v));
}

/// Multi-line rendering for test failure messages.
std::string to_string(const Block& b);

}  // namespace hlshc::idct
