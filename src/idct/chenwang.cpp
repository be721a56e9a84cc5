#include "idct/chenwang.hpp"

namespace hlshc::idct {

// The row pass computes an 11-bit-scaled 1-D IDCT:
// intermediate precision is 32 bits (the paper notes the Verilog version
// keeps full 32-bit arithmetic; Chisel later infers narrower widths).

void idct_row(int32_t* blk) {
  int32_t x0, x1, x2, x3, x4, x5, x6, x7, x8;

  // Zero-AC shortcut: with all AC terms zero the full butterfly reduces to
  // blk[i] = blk[0] << 3 exactly (see idct_row_straight), so software skips
  // the arithmetic.
  if (!((x1 = blk[4] << 11) | (x2 = blk[6]) | (x3 = blk[2]) |
        (x4 = blk[1]) | (x5 = blk[7]) | (x6 = blk[5]) | (x7 = blk[3]))) {
    blk[0] = blk[1] = blk[2] = blk[3] = blk[4] = blk[5] = blk[6] = blk[7] =
        blk[0] << 3;
    return;
  }
  x0 = (blk[0] << 11) + 128;  // +128 rounds the final >>8

  // first stage
  x8 = kW7 * (x4 + x5);
  x4 = x8 + (kW1 - kW7) * x4;
  x5 = x8 - (kW1 + kW7) * x5;
  x8 = kW3 * (x6 + x7);
  x6 = x8 - (kW3 - kW5) * x6;
  x7 = x8 - (kW3 + kW5) * x7;

  // second stage
  x8 = x0 + x1;
  x0 -= x1;
  x1 = kW6 * (x3 + x2);
  x2 = x1 - (kW2 + kW6) * x2;
  x3 = x1 + (kW2 - kW6) * x3;
  x1 = x4 + x6;
  x4 -= x6;
  x6 = x5 + x7;
  x5 -= x7;

  // third stage
  x7 = x8 + x3;
  x8 -= x3;
  x3 = x0 + x2;
  x0 -= x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;

  // fourth stage
  blk[0] = (x7 + x1) >> 8;
  blk[1] = (x3 + x2) >> 8;
  blk[2] = (x0 + x4) >> 8;
  blk[3] = (x8 + x6) >> 8;
  blk[4] = (x8 - x6) >> 8;
  blk[5] = (x0 - x4) >> 8;
  blk[6] = (x3 - x2) >> 8;
  blk[7] = (x7 - x1) >> 8;
}

// kept: the reference rtl_test and chisel_test compare the row units against.
void idct_row_straight(int32_t* blk) {
  int32_t x1 = blk[4] << 11, x2 = blk[6], x3 = blk[2], x4 = blk[1],
          x5 = blk[7], x6 = blk[5], x7 = blk[3];
  int32_t x0 = (blk[0] << 11) + 128;
  int32_t x8;

  x8 = kW7 * (x4 + x5);
  x4 = x8 + (kW1 - kW7) * x4;
  x5 = x8 - (kW1 + kW7) * x5;
  x8 = kW3 * (x6 + x7);
  x6 = x8 - (kW3 - kW5) * x6;
  x7 = x8 - (kW3 + kW5) * x7;

  x8 = x0 + x1;
  x0 -= x1;
  x1 = kW6 * (x3 + x2);
  x2 = x1 - (kW2 + kW6) * x2;
  x3 = x1 + (kW2 - kW6) * x3;
  x1 = x4 + x6;
  x4 -= x6;
  x6 = x5 + x7;
  x5 -= x7;

  x7 = x8 + x3;
  x8 -= x3;
  x3 = x0 + x2;
  x0 -= x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;

  blk[0] = (x7 + x1) >> 8;
  blk[1] = (x3 + x2) >> 8;
  blk[2] = (x0 + x4) >> 8;
  blk[3] = (x8 + x6) >> 8;
  blk[4] = (x8 - x6) >> 8;
  blk[5] = (x0 - x4) >> 8;
  blk[6] = (x3 - x2) >> 8;
  blk[7] = (x7 - x1) >> 8;
}

void idct_col(int32_t* blk) {
  int32_t x0, x1, x2, x3, x4, x5, x6, x7, x8;

  if (!((x1 = (blk[8 * 4] << 8)) | (x2 = blk[8 * 6]) | (x3 = blk[8 * 2]) |
        (x4 = blk[8 * 1]) | (x5 = blk[8 * 7]) | (x6 = blk[8 * 5]) |
        (x7 = blk[8 * 3]))) {
    blk[8 * 0] = blk[8 * 1] = blk[8 * 2] = blk[8 * 3] = blk[8 * 4] =
        blk[8 * 5] = blk[8 * 6] = blk[8 * 7] = iclip((blk[8 * 0] + 32) >> 6);
    return;
  }
  x0 = (blk[8 * 0] << 8) + 8192;

  // first stage (with intermediate >>3 to hold 8-bit-scaled precision)
  x8 = kW7 * (x4 + x5) + 4;
  x4 = (x8 + (kW1 - kW7) * x4) >> 3;
  x5 = (x8 - (kW1 + kW7) * x5) >> 3;
  x8 = kW3 * (x6 + x7) + 4;
  x6 = (x8 - (kW3 - kW5) * x6) >> 3;
  x7 = (x8 - (kW3 + kW5) * x7) >> 3;

  // second stage
  x8 = x0 + x1;
  x0 -= x1;
  x1 = kW6 * (x3 + x2) + 4;
  x2 = (x1 - (kW2 + kW6) * x2) >> 3;
  x3 = (x1 + (kW2 - kW6) * x3) >> 3;
  x1 = x4 + x6;
  x4 -= x6;
  x6 = x5 + x7;
  x5 -= x7;

  // third stage
  x7 = x8 + x3;
  x8 -= x3;
  x3 = x0 + x2;
  x0 -= x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;

  // fourth stage
  blk[8 * 0] = iclip((x7 + x1) >> 14);
  blk[8 * 1] = iclip((x3 + x2) >> 14);
  blk[8 * 2] = iclip((x0 + x4) >> 14);
  blk[8 * 3] = iclip((x8 + x6) >> 14);
  blk[8 * 4] = iclip((x8 - x6) >> 14);
  blk[8 * 5] = iclip((x0 - x4) >> 14);
  blk[8 * 6] = iclip((x3 - x2) >> 14);
  blk[8 * 7] = iclip((x7 - x1) >> 14);
}

// kept: the reference rtl_test compares the column unit against.
void idct_col_straight(int32_t* blk) {
  int32_t x1 = blk[8 * 4] << 8, x2 = blk[8 * 6], x3 = blk[8 * 2],
          x4 = blk[8 * 1], x5 = blk[8 * 7], x6 = blk[8 * 5],
          x7 = blk[8 * 3];
  int32_t x0 = (blk[8 * 0] << 8) + 8192;
  int32_t x8;

  x8 = kW7 * (x4 + x5) + 4;
  x4 = (x8 + (kW1 - kW7) * x4) >> 3;
  x5 = (x8 - (kW1 + kW7) * x5) >> 3;
  x8 = kW3 * (x6 + x7) + 4;
  x6 = (x8 - (kW3 - kW5) * x6) >> 3;
  x7 = (x8 - (kW3 + kW5) * x7) >> 3;

  x8 = x0 + x1;
  x0 -= x1;
  x1 = kW6 * (x3 + x2) + 4;
  x2 = (x1 - (kW2 + kW6) * x2) >> 3;
  x3 = (x1 + (kW2 - kW6) * x3) >> 3;
  x1 = x4 + x6;
  x4 -= x6;
  x6 = x5 + x7;
  x5 -= x7;

  x7 = x8 + x3;
  x8 -= x3;
  x3 = x0 + x2;
  x0 -= x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;

  blk[8 * 0] = iclip((x7 + x1) >> 14);
  blk[8 * 1] = iclip((x3 + x2) >> 14);
  blk[8 * 2] = iclip((x0 + x4) >> 14);
  blk[8 * 3] = iclip((x8 + x6) >> 14);
  blk[8 * 4] = iclip((x8 - x6) >> 14);
  blk[8 * 5] = iclip((x0 - x4) >> 14);
  blk[8 * 6] = iclip((x3 - x2) >> 14);
  blk[8 * 7] = iclip((x7 - x1) >> 14);
}

void idct_2d(Block& block) {
  for (int r = 0; r < kBlockDim; ++r) idct_row(block.data() + 8 * r);
  for (int c = 0; c < kBlockDim; ++c) idct_col(block.data() + c);
}

// kept: the reference idct_test compares idct_2d against.
void idct_2d_straight(Block& block) {
  for (int r = 0; r < kBlockDim; ++r) idct_row_straight(block.data() + 8 * r);
  for (int c = 0; c < kBlockDim; ++c) idct_col_straight(block.data() + c);
}

}  // namespace hlshc::idct
