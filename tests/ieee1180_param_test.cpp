// Parameterized IEEE 1180-1990 sweeps: one test instance per (range, sign)
// case of the standard, on the software model (hardware equivalence is
// covered by the integration suite; the full 10,000-block procedure by
// `hlshc_paper ieee1180` and examples/conformance).
#include <gtest/gtest.h>

#include "idct/chenwang.hpp"
#include "idct/ieee1180.hpp"

namespace hlshc::idct {
namespace {

struct CaseParam {
  long L, H;
  int sign;
};

class Ieee1180Cases : public ::testing::TestWithParam<CaseParam> {};

TEST_P(Ieee1180Cases, ChenWangPassesEachStandardCase) {
  ComplianceCase c;
  c.range_low = GetParam().L;
  c.range_high = GetParam().H;
  c.sign = GetParam().sign;
  c.blocks = 2000;  // enough for stable statistics, quick in a unit test
  ComplianceResult r = run_compliance_case(
      [](const Block& in) {
        Block b = in;
        idct_2d(b);
        return b;
      },
      c);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_LE(r.peak_error, 1.0);
  EXPECT_TRUE(r.zero_in_zero_out);
}

TEST_P(Ieee1180Cases, StatisticsAreInTheExpectedRegime) {
  ComplianceCase c;
  c.range_low = GetParam().L;
  c.range_high = GetParam().H;
  c.sign = GetParam().sign;
  c.blocks = 1000;
  ComplianceResult r = run_compliance_case(
      [](const Block& in) {
        Block b = in;
        idct_2d(b);
        return b;
      },
      c);
  // The integer IDCT is not bit-identical to the float reference (that
  // would make the standard trivial) but stays an order of magnitude
  // inside the thresholds.
  EXPECT_GT(r.omse, 0.0);
  EXPECT_LT(r.omse, 0.02);
  EXPECT_LT(r.worst_pmse, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    StandardMatrix, Ieee1180Cases,
    ::testing::Values(CaseParam{256, 255, +1}, CaseParam{256, 255, -1},
                      CaseParam{5, 5, +1}, CaseParam{5, 5, -1},
                      CaseParam{300, 300, +1}, CaseParam{300, 300, -1}),
    [](const ::testing::TestParamInfo<CaseParam>& info) {
      return "L" + std::to_string(info.param.L) + "_H" +
             std::to_string(info.param.H) +
             (info.param.sign > 0 ? "_pos" : "_neg");
    });

TEST(Ieee1180Seeds, DifferentSeedsGiveDifferentBlocksSameVerdict) {
  auto idct = [](const Block& in) {
    Block b = in;
    idct_2d(b);
    return b;
  };
  ComplianceCase a;
  a.blocks = 500;
  a.seed = 1;
  ComplianceCase b = a;
  b.seed = 999;
  ComplianceResult ra = run_compliance_case(idct, a);
  ComplianceResult rb = run_compliance_case(idct, b);
  EXPECT_TRUE(ra.pass);
  EXPECT_TRUE(rb.pass);
  EXPECT_NE(ra.omse, rb.omse);  // genuinely different inputs
}

}  // namespace
}  // namespace hlshc::idct
