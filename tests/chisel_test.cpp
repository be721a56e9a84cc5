// Tests for the Chisel-style eDSL and design family: width-inference rules,
// bit-exact equivalence with the software model, cycle behaviour, and the
// Verilog-vs-Chisel area/performance shape of the paper.
#include "chisel/designs.hpp"
#include "chisel/dsl.hpp"

#include <gtest/gtest.h>

#include "axis/testbench.hpp"
#include "testutil.hpp"
#include "base/rng.hpp"
#include "idct/chenwang.hpp"
#include "rtl/designs.hpp"
#include "sim/simulator.hpp"
#include "synth/synthesize.hpp"

namespace hlshc::chisel {
namespace {

using testutil::realistic_coeff_block;
using testutil::software_idct;

// ---- DSL width inference ----------------------------------------------------

TEST(Dsl, AddSubInferMaxPlusOne) {
  Builder b("t");
  SInt a = b.input("a", 12);
  SInt c = b.input("c", 15);
  EXPECT_EQ((a + c).width(), 16);
  EXPECT_EQ((a - c).width(), 16);
}

TEST(Dsl, MulInfersSumOfWidths) {
  Builder b("t");
  SInt a = b.input("a", 12);
  EXPECT_EQ((a * b.lit(idct::kW1)).width(), 12 + 13);
}

TEST(Dsl, ShiftInference) {
  Builder b("t");
  SInt a = b.input("a", 12);
  EXPECT_EQ((a << 11).width(), 23);
  EXPECT_EQ((a >> 8).width(), 4);
  EXPECT_EQ((a >> 20).width(), 1);
}

TEST(Dsl, LiteralWidthIsMinimal) {
  Builder b("t");
  EXPECT_EQ(b.lit(0).width(), 1);
  EXPECT_EQ(b.lit(127).width(), 8);
  EXPECT_EQ(b.lit(-128).width(), 8);
  EXPECT_EQ(b.lit(idct::kW1).width(), 13);
}

TEST(Dsl, MuxTakesMaxWidth) {
  Builder b("t");
  SInt a = b.input("a", 5);
  SInt c = b.input("c", 9);
  Bool s = b.input_bool("s");
  EXPECT_EQ(b.mux(s, a, c).width(), 9);
}

TEST(Dsl, ConnectRefusesTruncation) {
  Builder b("t");
  SInt r = b.reg_init(8, 0, "r");
  SInt wide = b.input("w", 12);
  EXPECT_THROW(b.connect_when(r, b.input_bool("en"), wide), Error);
}

TEST(Dsl, WidthOverflowRejected) {
  Builder b("t");
  SInt a = b.input("a", 40);
  EXPECT_THROW(a * a, Error);  // 80 inferred bits exceed the 64-bit limit
}

TEST(Dsl, DslComputesCorrectValues) {
  // (a + b) * 3 - (a << 1), evaluated through the simulator.
  Builder b("t");
  SInt a = b.input("a", 8);
  SInt c = b.input("c", 8);
  SInt expr = (a + c) * b.lit(3) - (a << 1);
  b.output("o", expr);
  netlist::Design d = b.take();
  sim::Simulator sim(d);
  sim.set_input("a", 10);
  sim.set_input("c", -3);
  sim.eval();
  EXPECT_EQ(sim.output_i64("o"), (10 - 3) * 3 - 20);
}

TEST(Dsl, BitExtraction) {
  Builder b("t");
  SInt a = b.input("a", 8);
  b.output_bool("b0", a.bit(0));
  b.output_bool("b7", a.bit(7));
  netlist::Design d = b.take();
  sim::Simulator sim(d);
  sim.set_input("a", -127);  // 1000_0001
  sim.eval();
  EXPECT_EQ(sim.output_i64("b0") != 0, true);
  EXPECT_EQ(sim.output_i64("b7") != 0, true);
}

// ---- row/col kernels ---------------------------------------------------------

TEST(ChiselKernels, RowPassMatchesSoftware) {
  Builder b("row");
  std::array<SInt, 8> in;
  for (int c = 0; c < 8; ++c)
    in[static_cast<size_t>(c)] = b.input("i" + std::to_string(c), 12);
  auto out = idct_row(b, in);
  for (int c = 0; c < 8; ++c)
    b.output("o" + std::to_string(c), out[static_cast<size_t>(c)]);
  netlist::Design d = b.take();
  sim::Simulator sim(d);
  SplitMix64 rng(21);
  for (int iter = 0; iter < 300; ++iter) {
    idct::Block blk = realistic_coeff_block(rng);
    int32_t row[8];
    for (int c = 0; c < 8; ++c) {
      row[c] = idct::at(blk, iter % 8, c);
      sim.set_input("i" + std::to_string(c), row[c]);
    }
    sim.eval();
    idct::idct_row_straight(row);
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(sim.output_i64("o" + std::to_string(c)), row[c]);
  }
}

// ---- full designs -------------------------------------------------------------

struct ChiselCase {
  const char* label;
  netlist::Design (*build)();
  int latency;
};

// Print the label only, so test names are the same from run to run (the
// default prints the raw bytes, pointers included).
void PrintTo(const ChiselCase& c, std::ostream* os) { *os << c.label; }

class ChiselFamily : public ::testing::TestWithParam<ChiselCase> {};

TEST_P(ChiselFamily, BitExactAgainstSoftwareModel) {
  netlist::Design d = GetParam().build();
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(77);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(realistic_coeff_block(rng));
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), ins.size());
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(out[i], software_idct(ins[i])) << "matrix " << i;
  EXPECT_TRUE(tb.monitor().clean());
}

TEST_P(ChiselFamily, CycleBehaviourMatchesVerilogTwin) {
  netlist::Design d = GetParam().build();
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(78);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(realistic_coeff_block(rng));
  tb.run(ins);
  EXPECT_EQ(tb.timing().latency_cycles, GetParam().latency);
  EXPECT_DOUBLE_EQ(tb.timing().periodicity_cycles, 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ChiselFamily,
    ::testing::Values(ChiselCase{"initial", &build_chisel_initial, 17},
                      ChiselCase{"opt", &build_chisel_opt, 24}),
    [](const ::testing::TestParamInfo<ChiselCase>& info) {
      return info.param.label;
    });

// ---- the paper's Verilog-vs-Chisel shape --------------------------------------

TEST(ChiselVsVerilog, InitialDesignsLandWithinTenPercent) {
  // Paper Table II: Chisel initial = 105.7% performance / 94.6% area of the
  // Verilog initial design. The inferred widths must keep the two families
  // in the same band, with Chisel no worse.
  auto v = synth::synthesize_normalized(rtl::build_verilog_initial());
  auto c = synth::synthesize_normalized(build_chisel_initial());
  double perf_ratio = c.normal.fmax_mhz / v.normal.fmax_mhz;
  double area_ratio = static_cast<double>(c.area()) /
                      static_cast<double>(v.area());
  EXPECT_GT(perf_ratio, 0.95);
  EXPECT_LT(perf_ratio, 1.25);
  EXPECT_LT(area_ratio, 1.05);
  EXPECT_GT(area_ratio, 0.75);
}

TEST(ChiselVsVerilog, OptimizedDesignsComparable) {
  // Paper: optimized Chisel = 98.7% performance / 109.5% area of Verilog.
  auto v = synth::synthesize_normalized(rtl::build_verilog_opt2());
  auto c = synth::synthesize_normalized(build_chisel_opt());
  double perf_ratio = c.normal.fmax_mhz / v.normal.fmax_mhz;
  double area_ratio = static_cast<double>(c.area()) /
                      static_cast<double>(v.area());
  EXPECT_GT(perf_ratio, 0.85);
  EXPECT_LT(perf_ratio, 1.20);
  EXPECT_GT(area_ratio, 0.80);
  EXPECT_LT(area_ratio, 1.30);
}

}  // namespace
}  // namespace hlshc::chisel
