// Tests for the Verilog-style design family: bit-exact functional
// equivalence against the ISO 13818-4 software model, measured cycle
// behaviour, and the synthesis shape the paper reports (initial vs opt).
#include "rtl/designs.hpp"
#include "rtl/units.hpp"

#include <gtest/gtest.h>

#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "idct/chenwang.hpp"
#include "sim/simulator.hpp"
#include "synth/synthesize.hpp"

namespace hlshc::rtl {
namespace {

idct::Block random_block(SplitMix64& rng) {
  idct::Block b{};
  for (auto& v : b)
    v = static_cast<int32_t>(rng.next_in(idct::kCoeffMin, idct::kCoeffMax));
  return b;
}

idct::Block software_idct(const idct::Block& in) {
  idct::Block b = in;
  idct::idct_2d(b);
  return b;
}

// ---- unit-level -------------------------------------------------------------

TEST(Units, RowUnitMatchesSoftwareRowPass) {
  netlist::Design d("row");
  std::array<netlist::NodeId, 8> in;
  for (int c = 0; c < 8; ++c)
    in[static_cast<size_t>(c)] = d.input("i" + std::to_string(c), 12);
  auto out = build_row_unit(d, in);
  for (int c = 0; c < 8; ++c)
    d.output("o" + std::to_string(c), out[static_cast<size_t>(c)]);

  sim::Simulator sim(d);
  SplitMix64 rng(1);
  for (int iter = 0; iter < 500; ++iter) {
    int32_t row[8];
    for (int c = 0; c < 8; ++c) {
      row[c] = static_cast<int32_t>(
          rng.next_in(idct::kCoeffMin, idct::kCoeffMax));
      sim.set_input("i" + std::to_string(c), row[c]);
    }
    sim.eval();
    idct::idct_row_straight(row);
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(sim.output_i64("o" + std::to_string(c)), row[c]);
  }
}

TEST(Units, ColUnitMatchesSoftwareColPass) {
  netlist::Design d("col");
  std::array<netlist::NodeId, 8> in;
  for (int r = 0; r < 8; ++r)
    in[static_cast<size_t>(r)] = d.input("i" + std::to_string(r), 20);
  auto out = build_col_unit(d, in);
  for (int r = 0; r < 8; ++r)
    d.output("o" + std::to_string(r), out[static_cast<size_t>(r)]);

  sim::Simulator sim(d);
  SplitMix64 rng(2);
  for (int iter = 0; iter < 500; ++iter) {
    int32_t col[64] = {};
    for (int r = 0; r < 8; ++r) {
      col[8 * r] = static_cast<int32_t>(rng.next_in(-170000, 170000));
      sim.set_input("i" + std::to_string(r), col[8 * r]);
    }
    sim.eval();
    idct::idct_col_straight(col);
    for (int r = 0; r < 8; ++r)
      EXPECT_EQ(sim.output_i64("o" + std::to_string(r)), col[8 * r]);
  }
}

TEST(Units, Clip9Saturates) {
  netlist::Design d("clip");
  netlist::NodeId v = d.input("v", 20);
  d.output("o", build_clip9(d, v));
  sim::Simulator sim(d);
  for (int64_t x : {-300000L, -257L, -256L, -1L, 0L, 255L, 256L, 77777L}) {
    sim.set_input("v", x);
    sim.eval();
    EXPECT_EQ(sim.output_i64("o"), idct::iclip(x)) << x;
  }
}

TEST(Units, MuxByIndexSelects) {
  netlist::Design d("mux");
  netlist::NodeId sel = d.input("sel", 3);
  std::vector<netlist::NodeId> items;
  for (int i = 0; i < 8; ++i) items.push_back(d.constant(8, 10 * i));
  d.output("o", mux_by_index(d, sel, items));
  sim::Simulator sim(d);
  for (int i = 0; i < 8; ++i) {
    sim.set_input("sel", i);
    sim.eval();
    EXPECT_EQ(sim.output_i64("o"), 10 * i);
  }
}

// ---- design-level -----------------------------------------------------------

struct DesignCase {
  const char* label;
  netlist::Design (*build)();
  int latency;
  double periodicity;
};

// Print the label only, so test names are the same from run to run (the
// default prints the raw bytes, pointers included).
void PrintTo(const DesignCase& c, std::ostream* os) { *os << c.label; }

class VerilogFamily : public ::testing::TestWithParam<DesignCase> {};

TEST_P(VerilogFamily, BitExactAgainstSoftwareModel) {
  netlist::Design d = GetParam().build();
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(42);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(random_block(rng));
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), ins.size());
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(out[i], software_idct(ins[i]))
        << GetParam().label << " matrix " << i;
  EXPECT_TRUE(tb.monitor().clean());
}

TEST_P(VerilogFamily, MeasuredCycleBehaviourMatchesPaper) {
  netlist::Design d = GetParam().build();
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(43);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(random_block(rng));
  tb.run(ins);
  EXPECT_EQ(tb.timing().latency_cycles, GetParam().latency);
  EXPECT_DOUBLE_EQ(tb.timing().periodicity_cycles, GetParam().periodicity);
}

TEST_P(VerilogFamily, SurvivesBackpressure) {
  netlist::Design d = GetParam().build();
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  tb.sink().set_backpressure(3, 4);
  SplitMix64 rng(44);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(random_block(rng));
  auto out = tb.run(ins);
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(out[i], software_idct(ins[i]));
  EXPECT_TRUE(tb.monitor().clean());
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, VerilogFamily,
    ::testing::Values(
        DesignCase{"initial", &build_verilog_initial, 17, 8.0},
        DesignCase{"opt1", &build_verilog_opt1, 17, 8.0},
        DesignCase{"opt2", &build_verilog_opt2, 24, 8.0}),
    [](const ::testing::TestParamInfo<DesignCase>& info) {
      return info.param.label;
    });

// ---- synthesis shape --------------------------------------------------------

TEST(VerilogSynthesis, OptimizationShrinksAreaAndRaisesFmax) {
  // The paper: opt2 throughput x2 over initial, area / 4.6, quality x9.4.
  auto init = synth::synthesize_normalized(build_verilog_initial());
  auto opt1 = synth::synthesize_normalized(build_verilog_opt1());
  auto opt2 = synth::synthesize_normalized(build_verilog_opt2());

  EXPECT_GT(opt1.normal.fmax_mhz, init.normal.fmax_mhz);
  EXPECT_GT(opt2.normal.fmax_mhz, 1.5 * init.normal.fmax_mhz);
  EXPECT_LT(opt1.area(), init.area());
  EXPECT_LT(opt2.area(), opt1.area());
  EXPECT_GT(static_cast<double>(init.area()),
            3.0 * static_cast<double>(opt2.area()));
}

TEST(VerilogSynthesis, InitialUsesManyDspsOptUsesFew) {
  auto init = synth::synthesize(build_verilog_initial());
  auto opt2 = synth::synthesize(build_verilog_opt2());
  EXPECT_GT(init.n_dsp, 100);  // paper: 160
  EXPECT_LT(opt2.n_dsp, 40);   // paper: 20
}

TEST(VerilogSynthesis, IoPinCountMatchesStreamInterface) {
  auto rep = synth::synthesize(build_verilog_initial());
  // 96 data in + 72 data out + tvalid/tready/tlast on both sides = 174.
  EXPECT_EQ(rep.n_io, 174);
}

}  // namespace
}  // namespace hlshc::rtl
