// Unit tests for the AXI-Stream substrate: payload packing, drivers,
// protocol monitor, and back-pressure behaviour against a real DUT
// (the Verilog-family designs double as the DUT here).
#include "axis/stream.hpp"
#include "axis/testbench.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "idct/chenwang.hpp"
#include "rtl/designs.hpp"

namespace hlshc::axis {
namespace {

idct::Block random_block(SplitMix64& rng) {
  idct::Block b{};
  for (auto& v : b)
    v = static_cast<int32_t>(rng.next_in(idct::kCoeffMin, idct::kCoeffMax));
  return b;
}

idct::Block expected(const idct::Block& in) {
  idct::Block b = in;
  idct::idct_2d(b);
  return b;
}

TEST(Stream, BeatPackingRoundTrip) {
  SplitMix64 rng(3);
  idct::Block b = random_block(rng);
  auto beats = matrix_to_beats(b);
  ASSERT_EQ(beats.size(), 8u);
  EXPECT_FALSE(beats[0].last);
  EXPECT_TRUE(beats[7].last);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(beats[static_cast<size_t>(r)]
                    .lanes[static_cast<size_t>(c)]
                    .to_int64(),
                idct::at(b, r, c));
}

TEST(Stream, OutputBeatSignExtension) {
  Beat beat;
  for (int c = 0; c < kLanes; ++c)
    beat.lanes[static_cast<size_t>(c)] = BitVec(kOutElemWidth, -256 + c);
  beat.last = true;
  idct::Block b{};
  store_output_beat(beat, b, 0);
  for (int c = 0; c < 8; ++c) EXPECT_EQ(idct::at(b, 0, c), -256 + c);
}

TEST(Stream, LanePortNames) {
  EXPECT_EQ(lane_port("s", 0), "s_tdata0");
  EXPECT_EQ(lane_port("m", 7), "m_tdata7");
}

class TestbenchAgainstDut : public ::testing::Test {
 protected:
  netlist::Design design_ = rtl::build_verilog_initial();
};

TEST_F(TestbenchAgainstDut, SingleMatrixFlowsThrough) {
  sim::Simulator sim(design_);
  StreamTestbench tb(sim);
  SplitMix64 rng(5);
  idct::Block in = random_block(rng);
  auto out = tb.run({in});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], expected(in)) << "in:\n"
                                  << idct::to_string(in) << "got:\n"
                                  << idct::to_string(out[0]);
  EXPECT_TRUE(tb.monitor().clean());
}

TEST_F(TestbenchAgainstDut, MeasuredLatencyAndPeriodicity) {
  sim::Simulator sim(design_);
  StreamTestbench tb(sim);
  SplitMix64 rng(6);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(random_block(rng));
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), 6u);
  // The paper's Table II row for initial Verilog: latency 17, periodicity 8.
  EXPECT_EQ(tb.timing().latency_cycles, 17);
  EXPECT_DOUBLE_EQ(tb.timing().periodicity_cycles, 8.0);
}

TEST_F(TestbenchAgainstDut, BackpressureStallsButPreservesData) {
  sim::Simulator sim(design_);
  StreamTestbench tb(sim);
  tb.sink().set_backpressure(2, 5);  // ready only 3 of every 5 cycles
  SplitMix64 rng(7);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(random_block(rng));
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < ins.size(); ++i) EXPECT_EQ(out[i], expected(ins[i]));
  EXPECT_TRUE(tb.monitor().clean())
      << "violations: " << tb.monitor().violations().size();
  // Throughput degrades under back-pressure.
  EXPECT_GT(tb.timing().periodicity_cycles, 8.0);
}

TEST_F(TestbenchAgainstDut, SlowSourceStillCorrect) {
  sim::Simulator sim(design_);
  StreamTestbench tb(sim);
  tb.source().set_gap_cycles(3);
  SplitMix64 rng(8);
  std::vector<idct::Block> ins = {random_block(rng), random_block(rng)};
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), 2u);
  for (size_t i = 0; i < ins.size(); ++i) EXPECT_EQ(out[i], expected(ins[i]));
  EXPECT_TRUE(tb.monitor().clean());
}

TEST_F(TestbenchAgainstDut, TimeoutThrowsInsteadOfHanging) {
  sim::Simulator sim(design_);
  StreamTestbench tb(sim);
  SplitMix64 rng(9);
  EXPECT_THROW(tb.run({random_block(rng)}, /*max_cycles=*/3), Error);
}

}  // namespace
}  // namespace hlshc::axis
