// AXI4-Stream payload conventions used by every IDCT design.
//
// All designs in this repository expose the same row-by-row stream
// interface the paper wraps its kernels in:
//
//   slave (input)  port prefix "s": s_tdata0..7 (12b), s_tvalid, s_tlast,
//                                   and the s_tready back-pressure output;
//   master (output) prefix "m":     m_tdata0..7 (9b), m_tvalid, m_tlast,
//                                   and the m_tready back-pressure input.
//
// One beat carries one matrix row. The 96-bit input TDATA (8 x 12-bit
// coefficients) and the 72-bit output TDATA (8 x 9-bit samples) are modelled
// as 8 element lanes because the netlist value type is capped at 64 bits;
// the lane split changes neither the handshake protocol nor the pin count
// (the paper's N_IO counts total TDATA bits, which are identical).
// TLAST marks the 8th row of a matrix.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/bitvec.hpp"
#include "idct/block.hpp"

namespace hlshc::axis {

inline constexpr int kInElemWidth = 12;
inline constexpr int kOutElemWidth = 9;
inline constexpr int kLanes = idct::kBlockDim;
inline constexpr int kInBeatBits = kInElemWidth * kLanes;    // 96
inline constexpr int kOutBeatBits = kOutElemWidth * kLanes;  // 72

/// One stream beat: one matrix row across 8 element lanes.
struct Beat {
  std::array<BitVec, kLanes> lanes;
  bool last = false;
};

/// Lane port name, e.g. lane_port("s", 3) == "s_tdata3".
std::string lane_port(const std::string& prefix, int lane);

/// Row `r` of `block` as a 12-bit-lane input beat (TLAST on row 7).
Beat input_row_beat(const idct::Block& block, int r);

/// All 8 input beats of a matrix.
std::vector<Beat> matrix_to_beats(const idct::Block& block);

/// Store an output beat (9-bit lanes, sign-extended) into row `r`.
void store_output_beat(const Beat& beat, idct::Block& block, int r);

}  // namespace hlshc::axis
