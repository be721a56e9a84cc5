// Unit + property tests for the IDCT algorithm library: the fixed-point
// Chen-Wang implementation, the floating-point reference, and the
// IEEE 1180-1990 compliance harness.
#include "idct/chenwang.hpp"
#include "idct/ieee1180.hpp"
#include "idct/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.hpp"

namespace hlshc::idct {
namespace {

Block random_coeffs(SplitMix64& rng, int lo = kCoeffMin, int hi = kCoeffMax) {
  Block b{};
  for (auto& v : b) v = static_cast<int32_t>(rng.next_in(lo, hi));
  return b;
}

TEST(ChenWang, ZeroBlockGivesZeroBlock) {
  Block b{};
  idct_2d(b);
  EXPECT_EQ(b, Block{});
  Block s{};
  idct_2d_straight(s);
  EXPECT_EQ(s, Block{});
}

TEST(ChenWang, DcOnlyBlock) {
  // A pure-DC coefficient block decodes to a flat image: F(0,0)=64 gives
  // round(64/8) = 8 in every sample.
  Block b{};
  b[0] = 64;
  idct_2d(b);
  for (int32_t v : b) EXPECT_EQ(v, 8);
}

TEST(ChenWang, OutputAlwaysInNineBitRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    Block b = random_coeffs(rng);
    idct_2d(b);
    for (int32_t v : b) {
      EXPECT_GE(v, kSampleMin);
      EXPECT_LE(v, kSampleMax);
    }
  }
}

TEST(ChenWang, RowShortcutEqualsStraightLine) {
  // Property: the zero-AC software shortcut is bit-identical to the
  // straight-line butterfly hardware evaluates.
  SplitMix64 rng(11);
  for (int i = 0; i < 5000; ++i) {
    int32_t row_a[8], row_b[8];
    bool dc_only = (i % 4 == 0);
    for (int c = 0; c < 8; ++c) {
      int32_t v = static_cast<int32_t>(rng.next_in(kCoeffMin, kCoeffMax));
      if (dc_only && c > 0) v = 0;
      row_a[c] = row_b[c] = v;
    }
    idct_row(row_a);
    idct_row_straight(row_b);
    for (int c = 0; c < 8; ++c) EXPECT_EQ(row_a[c], row_b[c]);
  }
}

TEST(ChenWang, ColShortcutEqualsStraightLine) {
  SplitMix64 rng(13);
  for (int i = 0; i < 5000; ++i) {
    int32_t col_a[64] = {}, col_b[64] = {};
    bool dc_only = (i % 4 == 0);
    for (int r = 0; r < 8; ++r) {
      // Column inputs are row-pass results; keep them in the reachable
      // range (see rtl/units.hpp's 20-bit storage bound).
      int32_t v = static_cast<int32_t>(rng.next_in(-170000, 170000));
      if (dc_only && r > 0) v = 0;
      col_a[8 * r] = col_b[8 * r] = v;
    }
    idct_col(col_a);
    idct_col_straight(col_b);
    for (int r = 0; r < 8; ++r) EXPECT_EQ(col_a[8 * r], col_b[8 * r]);
  }
}

TEST(ChenWang, FullTransformShortcutEqualsStraight) {
  SplitMix64 rng(17);
  for (int i = 0; i < 1000; ++i) {
    Block a = random_coeffs(rng);
    Block b = a;
    idct_2d(a);
    idct_2d_straight(b);
    EXPECT_EQ(a, b);
  }
}

TEST(Reference, ForwardThenInverseIsNearIdentity) {
  // fDCT followed by the reference IDCT must reproduce spatial data almost
  // exactly (rounding can move a sample by at most 1).
  SplitMix64 rng(23);
  for (int i = 0; i < 200; ++i) {
    Block spatial{};
    for (auto& v : spatial) v = static_cast<int32_t>(rng.next_in(-256, 255));
    Block rec = idct_reference(forward_dct_reference(spatial));
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_LE(std::abs(rec[static_cast<size_t>(k)] -
                         spatial[static_cast<size_t>(k)]),
                1);
  }
}

TEST(Reference, LinearityOfIdctOnSmallInputs) {
  // IDCT(a) + IDCT(-a) == 0 up to rounding for the float reference.
  SplitMix64 rng(29);
  for (int i = 0; i < 100; ++i) {
    Block a{};
    for (auto& v : a) v = static_cast<int32_t>(rng.next_in(-100, 100));
    Block neg;
    for (int k = 0; k < kBlockSize; ++k)
      neg[static_cast<size_t>(k)] = -a[static_cast<size_t>(k)];
    Block pa = idct_reference(a);
    Block pn = idct_reference(neg);
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_LE(std::abs(pa[static_cast<size_t>(k)] +
                         pn[static_cast<size_t>(k)]),
                1);
  }
}

TEST(Ieee1180, ChenWangPassesQuickSuite) {
  // 1000 blocks per case keeps the test fast; the bench runs the full
  // 10,000-block standard procedure.
  auto suite = run_compliance_suite(
      [](const Block& in) {
        Block b = in;
        idct_2d(b);
        return b;
      },
      1000);
  ASSERT_EQ(suite.size(), 6u);
  for (const auto& r : suite)
    EXPECT_TRUE(r.pass) << "range (-" << r.config.range_high << ','
                        << r.config.range_low << ") sign " << r.config.sign
                        << ": " << r.failure;
}

TEST(Ieee1180, BrokenIdctIsRejected) {
  // An implementation that truncates instead of rounding fails compliance.
  auto broken = [](const Block& in) {
    Block b = in;
    idct_2d(b);
    for (auto& v : b) v = (v / 2) * 2;  // destroy the LSB
    return b;
  };
  auto suite = run_compliance_suite(broken, 200);
  EXPECT_TRUE(std::any_of(suite.begin(), suite.end(),
                          [](const ComplianceResult& r) { return !r.pass; }));
}

TEST(Ieee1180, ZeroInZeroOutDetectsDcBias) {
  auto biased = [](const Block& in) {
    Block b = in;
    idct_2d(b);
    b[0] += 1;
    return b;
  };
  ComplianceCase c;
  c.blocks = 10;
  auto r = run_compliance_case(biased, c);
  EXPECT_FALSE(r.zero_in_zero_out);
  EXPECT_FALSE(r.pass);
}

TEST(Block, Helpers) {
  Block b{};
  at(b, 2, 3) = 42;
  EXPECT_EQ(b[19], 42);
  EXPECT_NE(to_string(b).find("42"), std::string::npos);
  EXPECT_EQ(iclip(-1000), -256);
  EXPECT_EQ(iclip(1000), 255);
  EXPECT_EQ(iclip(12), 12);
}

}  // namespace
}  // namespace hlshc::idct
