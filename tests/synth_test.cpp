// Unit tests for the synthesis substrate: CSD recoding, cost model,
// static timing and the normalized-area flow.
#include "synth/csd.hpp"
#include "synth/synthesize.hpp"

#include <gtest/gtest.h>

#include "idct/chenwang.hpp"

namespace hlshc::synth {
namespace {

using netlist::Design;
using netlist::NodeId;

TEST(Csd, DecomposeMatchesValue) {
  for (int64_t v : {1, 2, 3, 7, 15, 181, 565, 1108, 1609, 2408, 2676, 2841,
                    -7, -2841, 0}) {
    int64_t sum = 0;
    for (const CsdDigit& dgt : csd_decompose(v))
      sum += dgt.sign * (int64_t{1} << dgt.shift);
    EXPECT_EQ(sum, v) << "CSD of " << v;
  }
}

TEST(Csd, NoTwoAdjacentNonzeroDigits) {
  for (int64_t v = 1; v < 4096; ++v) {
    auto digits = csd_decompose(v);
    for (size_t i = 1; i < digits.size(); ++i)
      EXPECT_GT(digits[i].shift, digits[i - 1].shift + 1)
          << "adjacent CSD digits for " << v;
  }
}

TEST(Csd, RecodingNeverWorseThanBinary) {
  for (int64_t v = 1; v < 8192; ++v)
    EXPECT_LE(csd_nonzero_digits(v), binary_nonzero_digits(v)) << v;
}

TEST(Csd, KnownCounts) {
  EXPECT_EQ(csd_nonzero_digits(0), 0);
  EXPECT_EQ(csd_nonzero_digits(1), 1);
  EXPECT_EQ(csd_nonzero_digits(1024), 1);
  EXPECT_EQ(csd_nonzero_digits(7), 2);    // 8 - 1
  EXPECT_EQ(csd_nonzero_digits(15), 2);   // 16 - 1
  // The IDCT constants stay cheap in CSD form.
  for (int w : {idct::kW1, idct::kW2, idct::kW3, idct::kW5, idct::kW6,
                idct::kW7, 181}) {
    EXPECT_LE(csd_nonzero_digits(w), 6) << w;
    EXPECT_GE(csd_nonzero_digits(w), 2) << w;
  }
}

Design make_mac_design() {
  Design d("mac");
  NodeId a = d.input("a", 12);
  NodeId k = d.constant(13, idct::kW1);
  NodeId m = d.mul(a, k, 25);
  NodeId acc = d.reg(32, 0, "acc");
  d.set_reg_next(acc, d.add(acc, d.sext(m, 32), 32));
  d.output("acc", acc);
  return d;
}

TEST(CostModel, DspBudgetSwitchesMultiplierImplementation) {
  Design d = make_mac_design();
  SynthOptions with_dsp;   // unlimited
  SynthOptions no_dsp;
  no_dsp.maxdsp = 0;
  SynthReport r1 = synthesize(d, with_dsp);
  SynthReport r0 = synthesize(d, no_dsp);
  EXPECT_GT(r1.n_dsp, 0);
  EXPECT_EQ(r0.n_dsp, 0);
  EXPECT_GT(r0.n_lut, r1.n_lut);  // shift-add tree costs fabric
}

TEST(CostModel, DspTiles) {
  EXPECT_EQ(CostModel::dsp_tiles(12, 13), 1);
  EXPECT_EQ(CostModel::dsp_tiles(27, 18), 1);  // native size
  EXPECT_EQ(CostModel::dsp_tiles(28, 18), 2);
  EXPECT_EQ(CostModel::dsp_tiles(28, 19), 4);
  EXPECT_EQ(CostModel::dsp_tiles(32, 32), 4);
}

TEST(CostModel, PowerOfTwoConstMulIsFree) {
  Design d("p2");
  NodeId a = d.input("a", 12);
  d.output("o", d.mul(a, d.constant(12, 1024), 24));
  SynthOptions nodsp;
  nodsp.maxdsp = 0;
  SynthReport r = synthesize(d, nodsp);
  EXPECT_EQ(r.n_lut, 0);
  EXPECT_EQ(r.n_dsp, 0);
}

TEST(CostModel, RegistersCountAsFlipFlops) {
  Design d("r");
  NodeId in = d.input("in", 20);
  NodeId r = d.reg(20, 0, "r");
  d.set_reg_next(r, in);
  d.output("o", r);
  SynthReport rep = synthesize(d);
  EXPECT_EQ(rep.n_ff, 20);
}

TEST(Timing, DeeperLogicLowersFmax) {
  Design d1("shallow");
  {
    NodeId a = d1.input("a", 16);
    NodeId r = d1.reg(17, 0, "r");
    d1.set_reg_next(r, d1.add(a, a, 17));
    d1.output("o", r);
  }
  Design d2("deep");
  {
    NodeId a = d2.input("a", 16);
    NodeId x = d2.add(a, a, 17);
    for (int i = 0; i < 6; ++i) x = d2.add(x, a, 17);
    NodeId r = d2.reg(17, 0, "r");
    d2.set_reg_next(r, x);
    d2.output("o", r);
  }
  SynthReport r1 = synthesize(d1);
  SynthReport r2 = synthesize(d2);
  EXPECT_GT(r1.fmax_mhz, r2.fmax_mhz);
  EXPECT_GT(r2.critical_path_ns, r1.critical_path_ns);
}

TEST(Timing, PipeliningRaisesFmax) {
  auto chain = [](bool pipelined) {
    Design d(pipelined ? "pipe" : "flat");
    NodeId a = d.input("a", 16);
    NodeId k = d.constant(13, idct::kW3);
    NodeId x = d.mul(a, k, 30);
    if (pipelined) {
      NodeId r = d.reg(30, 0, "s1");
      d.set_reg_next(r, x);
      x = r;
    }
    NodeId y = d.mul(x, d.constant(13, idct::kW5), 43);
    NodeId r2 = d.reg(43, 0, "s2");
    d.set_reg_next(r2, y);
    d.output("o", r2);
    return d;
  };
  SynthOptions nodsp;
  nodsp.maxdsp = 0;
  SynthReport flat = synthesize(chain(false), nodsp);
  SynthReport pipe = synthesize(chain(true), nodsp);
  EXPECT_GT(pipe.fmax_mhz, flat.fmax_mhz);
  EXPECT_GT(pipe.n_ff, flat.n_ff);
}

TEST(Synthesize, NormalizedAreaUsesNoDspMapping) {
  Design d = make_mac_design();
  NormalizedSynth ns = synthesize_normalized(d);
  EXPECT_GT(ns.normal.n_dsp, 0);
  EXPECT_EQ(ns.nodsp.n_dsp, 0);
  EXPECT_EQ(ns.area(), ns.nodsp.n_lut + ns.nodsp.n_ff);
  EXPECT_GT(ns.area(), 0);
}

TEST(Synthesize, IoBitCountReported) {
  Design d("io");
  NodeId a = d.input("a", 12);
  d.output("o", d.add(a, a, 13));
  SynthReport r = synthesize(d);
  EXPECT_EQ(r.n_io, 25);
}

TEST(Synthesize, DeadLogicDoesNotCost) {
  Design d("dead");
  NodeId a = d.input("a", 16);
  d.mul(a, a, 32);  // dead multiplier
  d.output("o", d.add(a, a, 17));
  SynthReport r = synthesize(d);
  SynthOptions nodsp;
  nodsp.maxdsp = 0;
  nodsp.area.pack_factor = 1.0;
  SynthReport rn = synthesize(d, nodsp);
  EXPECT_EQ(r.n_dsp, 0);
  EXPECT_EQ(rn.n_lut, 17);  // just the adder
}

TEST(Synthesize, DeviceUtilization) {
  Device dev = xcvu9p();
  EXPECT_EQ(dev.luts, 1182240);
  EXPECT_EQ(dev.ffs, 2364480);
  EXPECT_EQ(dev.dsps, 6840);
  EXPECT_EQ(dev.ios, 702);
  SynthReport r;
  r.n_lut = dev.luts / 2;
  EXPECT_DOUBLE_EQ(r.lut_util(dev), 50.0);
}

TEST(Synthesize, CsdAblationChangesConstMultCost) {
  Design d("csd");
  NodeId a = d.input("a", 12);
  // 0b111 = 7: binary needs 3 digits (2 adders), CSD needs 2 (1 adder).
  d.output("o", d.mul(a, d.constant(4, 7), 16));
  SynthOptions csd;
  csd.maxdsp = 0;
  SynthOptions naive = csd;
  naive.csd_recoding = false;
  SynthReport rc = synthesize(d, csd);
  SynthReport rn = synthesize(d, naive);
  EXPECT_LT(rc.n_lut, rn.n_lut);
}

}  // namespace
}  // namespace hlshc::synth
