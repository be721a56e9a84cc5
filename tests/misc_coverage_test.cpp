// Coverage for the remaining public surfaces: timing-path description,
// MaxJ evaluation conversion, custom VCD signal sets, tool labels, and
// small helpers that the larger suites exercise only incidentally.
#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "hls/tool.hpp"
#include "maxj/kernels.hpp"
#include "maxj/system.hpp"
#include "netlist/ir.hpp"
#include "rtl/designs.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "synth/synthesize.hpp"

namespace hlshc {
namespace {

TEST(TimingPath, DescriptionNamesTheOperators) {
  auto rep = synth::synthesize(rtl::build_verilog_opt2());
  EXPECT_FALSE(rep.critical_path.empty());
  EXPECT_NE(rep.critical_path.find("->"), std::string::npos);
  // The path of the optimized design starts at a register.
  EXPECT_NE(rep.critical_path.find("reg<"), std::string::npos);
  EXPECT_GT(rep.critical_path_ns, 0.0);
  EXPECT_LT(rep.critical_path_ns, rep.min_period_ns);
}

TEST(TimingPath, UtilizationAgainstDevice) {
  synth::Device dev = synth::xcvu9p();
  auto rep = synth::synthesize(rtl::build_verilog_initial());
  EXPECT_GT(rep.lut_util(dev), 0.0);
  EXPECT_LT(rep.lut_util(dev), 5.0);  // the paper: tiny benchmark, big chip
  EXPECT_LT(rep.ff_util(dev), 1.0);
}

TEST(MaxjConversion, FromMaxjFillsEveryField) {
  maxj::Kernel k = maxj::build_row_kernel();
  maxj::SystemEvaluation ev =
      maxj::evaluate_system(k, synth::synthesize_normalized(k.design));
  core::DesignEvaluation d = core::from_maxj("probe", k, ev);
  EXPECT_EQ(d.name, "probe");
  EXPECT_TRUE(d.functional);
  EXPECT_DOUBLE_EQ(d.periodicity_cycles, 9.0);
  EXPECT_GT(d.throughput_mops, 0.0);
  EXPECT_EQ(d.area, d.n_lut_star + d.n_ff_star);
  EXPECT_GT(d.quality(), 0.0);
}

TEST(Vcd, CustomSignalSubset) {
  netlist::Design d = rtl::build_verilog_opt2();
  sim::Simulator sim(d);
  netlist::NodeId valid = d.find_output("m_tvalid");
  ASSERT_NE(valid, netlist::kInvalidNode);
  sim::VcdTrace trace(sim, {{"valid", valid}});
  sim.eval();
  trace.sample();
  std::string vcd = trace.finish();
  EXPECT_NE(vcd.find("$var wire 1 ! valid $end"), std::string::npos);
  // Exactly one declared signal.
  size_t count = 0, pos = 0;
  while ((pos = vcd.find("$var", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);
}

TEST(ToolLabels, BambuAndVhlsAreDescriptive) {
  hls::BambuOptions b;
  b.preset = hls::BambuPreset::kPerformanceMp;
  b.speculative_sdc = true;
  b.memory_policy = hls::MemoryAllocationPolicy::kGss;
  EXPECT_EQ(b.label(), "BAMBU-PERFORMANCE-MP+sdc+GSS");
  hls::VhlsOptions v;
  EXPECT_EQ(v.label(), "vhls-pushbutton");
  v.pragmas = true;
  v.pipeline_stages = 2;
  EXPECT_EQ(v.label(), "vhls+pragmas(stages=2)");
}

TEST(EvaluateOptions, UniformInputsWorkFor32BitFamilies) {
  core::EvaluateOptions o;
  o.realistic_inputs = false;  // uniform 12-bit coefficients
  o.matrices = 3;
  core::DesignEvaluation ev =
      core::evaluate_axis_design(rtl::build_verilog_opt2(), o);
  EXPECT_TRUE(ev.functional);  // 32-bit designs wrap exactly like the model
}

TEST(DesignStats, VerilogOpt2CountsTheRightThings) {
  netlist::Design d = rtl::build_verilog_opt2();
  netlist::DesignStats st = netlist::compute_stats(d);
  // Two butterfly units: 22 constant multipliers.
  EXPECT_EQ(st.const_mults, 22);
  EXPECT_EQ(st.multipliers, 0);
  // Ping-pong row (2x64x20) + out (2x64x9) + control bits.
  EXPECT_GT(st.reg_bits, 3600);
  EXPECT_LT(st.reg_bits, 3800);
}

}  // namespace
}  // namespace hlshc
