// Tests for the MaxJ family: DSL auto-pipelining/balancing semantics, both
// kernels' bit-exactness under tick-accurate simulation, and the PCIe
// system model's bound selection (initial kernel PCIe-limited, row kernel
// frequency-limited, as in the paper).
#include "maxj/dsl.hpp"
#include "maxj/kernels.hpp"
#include "maxj/system.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "base/rng.hpp"
#include "idct/chenwang.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace hlshc::maxj {
namespace {

using testutil::software_idct;
using testutil::uniform_coeff_block;

// ---- DSL -----------------------------------------------------------------

TEST(MaxjDsl, ArithmeticAddsOnePipelineStage) {
  KernelBuilder k("t");
  DFEVar a = k.input("a", 12);
  DFEVar b = k.input("b", 12);
  DFEVar s = k.add(a, b);
  EXPECT_EQ(s.depth, 1);
  DFEVar m = k.mulc(s, 181);
  EXPECT_EQ(m.depth, 2);
  DFEVar sh = k.ashr(m, 8);
  EXPECT_EQ(sh.depth, 2);  // wiring is free
}

TEST(MaxjDsl, BalancingAlignsMismatchedDepths) {
  KernelBuilder k("t");
  DFEVar a = k.input("a", 12);
  DFEVar deep = k.add(k.add(a, a), k.constant(1));  // depth 2
  DFEVar shallow = k.input("b", 12);                // depth 0
  DFEVar s = k.add(deep, shallow);
  EXPECT_EQ(s.depth, 3);
  EXPECT_GT(k.balancing_regs(), 0);
}

TEST(MaxjDsl, PipelinedExpressionComputesCorrectly) {
  KernelBuilder k("t");
  DFEVar a = k.input("a", 12);
  DFEVar b = k.input("b", 12);
  // (a + b) * 181 - (a << 2)
  DFEVar e = k.sub(k.mulc(k.add(a, b), 181), k.shl(a, 2));
  k.output("o", e);
  int depth = k.max_depth();
  netlist::Design d = k.finish();
  sim::Simulator sim(d);
  sim.set_input("a", 100);
  sim.set_input("b", -41);
  for (int i = 0; i < depth; ++i) sim.step();
  EXPECT_EQ(sim.output_i64("o"), (100 - 41) * 181 - 400);
}

TEST(MaxjDsl, OffsetDelaysStream) {
  KernelBuilder k("t");
  DFEVar a = k.input("a", 8);
  DFEVar d3 = k.offset(a, 3);
  EXPECT_EQ(d3.depth, 3);
  k.output("o", d3);
  netlist::Design d = k.finish();
  sim::Simulator sim(d);
  for (int t = 0; t < 10; ++t) {
    sim.set_input("a", t);
    sim.eval();
    if (t >= 3) {
      EXPECT_EQ(sim.output_i64("o"), t - 3);
    }
    sim.step();
  }
}

TEST(MaxjDsl, CounterWraps) {
  KernelBuilder k("t");
  DFEVar p = k.counter(9, "p");
  k.output_raw("p", p);
  netlist::Design d = k.finish();
  sim::Simulator sim(d);
  for (int t = 0; t < 30; ++t) {
    sim.eval();
    EXPECT_EQ(sim.output_i64("p"), t % 9);
    sim.step();
  }
}

// ---- matrix kernel -----------------------------------------------------------

TEST(MatrixKernel, StreamsOneMatrixPerTick) {
  Kernel kern = build_matrix_kernel();
  EXPECT_EQ(kern.ticks_per_op, 1);
  EXPECT_GE(kern.depth, 15);  // deeply auto-pipelined

  sim::Simulator sim(kern.design);
  SplitMix64 rng(8);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(uniform_coeff_block(rng));

  std::vector<idct::Block> outs;
  int ticks = static_cast<int>(ins.size()) + kern.depth + 2;
  for (int t = 0; t < ticks; ++t) {
    bool feeding = t < static_cast<int>(ins.size());
    sim.set_input("ivalid", feeding ? 1 : 0);
    if (feeding)
      for (int i = 0; i < 64; ++i)
        sim.set_input("x" + std::to_string(i),
                      ins[static_cast<size_t>(t)][static_cast<size_t>(i)]);
    sim.eval();
    if (sim.output_i64("ovalid")) {
      idct::Block b{};
      for (int i = 0; i < 64; ++i)
        b[static_cast<size_t>(i)] = static_cast<int32_t>(
            sim.output_i64("y" + std::to_string(i)));
      outs.push_back(b);
    }
    sim.step();
  }
  ASSERT_EQ(outs.size(), ins.size());
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(outs[i], software_idct(ins[i])) << "matrix " << i;
}

// ---- row kernel ----------------------------------------------------------------

TEST(RowKernel, EightRowsPerNineTicks) {
  Kernel kern = build_row_kernel();
  EXPECT_EQ(kern.ticks_per_op, 9);

  sim::Simulator sim(kern.design);
  SplitMix64 rng(9);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(uniform_coeff_block(rng));

  std::deque<std::array<int32_t, 8>> row_queue;
  for (const auto& b : ins)
    for (int r = 0; r < 8; ++r) {
      std::array<int32_t, 8> row;
      for (int c = 0; c < 8; ++c) row[static_cast<size_t>(c)] = idct::at(b, r, c);
      row_queue.push_back(row);
    }

  // Collect output columns; 8 columns per matrix in order.
  std::vector<std::array<int32_t, 8>> cols;
  int ticks = static_cast<int>(ins.size()) * 9 + kern.depth + 20;
  for (int t = 0; t < ticks; ++t) {
    sim.eval();
    bool iready = sim.output_i64("iready") != 0;
    if (iready && !row_queue.empty()) {
      const auto& row = row_queue.front();
      for (int c = 0; c < 8; ++c)
        sim.set_input("in" + std::to_string(c), row[static_cast<size_t>(c)]);
      sim.set_input("ivalid", 1);
      row_queue.pop_front();
    } else {
      sim.set_input("ivalid", 0);
    }
    sim.eval();
    if (sim.output_i64("ovalid")) {
      std::array<int32_t, 8> col;
      for (int r = 0; r < 8; ++r)
        col[static_cast<size_t>(r)] = static_cast<int32_t>(
            sim.output_i64("o" + std::to_string(r)));
      cols.push_back(col);
    }
    sim.step();
  }
  ASSERT_EQ(cols.size(), ins.size() * 8);
  for (size_t m = 0; m < ins.size(); ++m) {
    idct::Block want = software_idct(ins[m]);
    for (int c = 0; c < 8; ++c)
      for (int r = 0; r < 8; ++r)
        EXPECT_EQ(cols[m * 8 + static_cast<size_t>(c)]
                      [static_cast<size_t>(r)],
                  idct::at(want, r, c))
            << "matrix " << m << " col " << c << " row " << r;
  }
}

// ---- system model -----------------------------------------------------------------

/// Tests synthesize the kernel directly (the production path goes through
/// tools::compile_synth_normalized; see scripts/check_pipeline_guard.sh).
SystemEvaluation eval_kernel(const Kernel& k) {
  return evaluate_system(k, synth::synthesize_normalized(k.design));
}

TEST(System, MatrixKernelIsPcieBound) {
  SystemEvaluation ev = eval_kernel(build_matrix_kernel());
  // Paper: throughput equals PCIe 3.0 x16 bandwidth / 1024-bit matrices,
  // about 125 Mops/s, with the kernel clock well above that.
  EXPECT_TRUE(ev.pcie_limited);
  EXPECT_NEAR(ev.pcie_bound_ops, 125e6, 1e6);
  EXPECT_GT(ev.kernel_bound_ops, ev.pcie_bound_ops);
  EXPECT_DOUBLE_EQ(ev.throughput_ops, ev.pcie_bound_ops);
}

TEST(System, RowKernelIsFrequencyBound) {
  SystemEvaluation ev = eval_kernel(build_row_kernel());
  EXPECT_FALSE(ev.pcie_limited);
  EXPECT_DOUBLE_EQ(ev.throughput_ops, ev.kernel_bound_ops);
  // Periodicity 9: kernel bound = f / 9.
  EXPECT_NEAR(ev.kernel_bound_ops * 9.0, ev.kernel_tick_rate_hz, 1.0);
}

TEST(System, RowKernelTradesThroughputForArea) {
  // Paper: the row kernel occupies ~2.8x less area at ~2.7x less
  // throughput, leaving quality slightly better.
  SystemEvaluation init = eval_kernel(build_matrix_kernel());
  SystemEvaluation opt = eval_kernel(build_row_kernel());
  double area_ratio = static_cast<double>(init.synth.area()) /
                      static_cast<double>(opt.synth.area());
  double perf_ratio = init.throughput_ops / opt.throughput_ops;
  EXPECT_GT(area_ratio, 1.8);
  EXPECT_GT(perf_ratio, 1.8);
  EXPECT_LT(area_ratio, 6.5);
  EXPECT_LT(perf_ratio, 6.5);
}

TEST(System, KernelsHaveHighestClockOfTheStudy) {
  // The paper's MaxJ kernels run at 403 MHz — far above every AXI design.
  SystemEvaluation ev = eval_kernel(build_matrix_kernel());
  EXPECT_GT(ev.synth.normal.fmax_mhz, 200.0);
}

}  // namespace
}  // namespace hlshc::maxj
