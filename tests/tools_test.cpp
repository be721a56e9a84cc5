// Tests for the tool registry: flow wiring, LOC accounting from the
// shipped sources, Table I content, and the Fig. 1 sweep cardinalities.
#include "tools/flows.hpp"

#include <gtest/gtest.h>

#include "par/sweep.hpp"

namespace hlshc::tools {
namespace {

/// Evaluates every point of `flow`'s sweep through par::SweepRunner, the
/// path full_dse takes, and returns how many points it produced.
size_t swept_points(const Flow& flow) {
  const std::vector<SweepTask> tasks = flow.sweep_tasks();
  return par::SweepRunner(1)
      .map<core::ScatterPoint>(
          "test", static_cast<int64_t>(tasks.size()),
          [&](int64_t i) { return tasks[static_cast<size_t>(i)].run(); })
      .size();
}

TEST(Flows, SevenFlowsInPaperOrder) {
  auto flows = make_flows();
  ASSERT_EQ(flows.size(), 7u);
  EXPECT_EQ(flows[0]->info().tool, "Vivado");
  EXPECT_EQ(flows[1]->info().tool, "Chisel");
  EXPECT_EQ(flows[2]->info().tool, "BSC");
  EXPECT_EQ(flows[3]->info().tool, "XLS");
  EXPECT_EQ(flows[4]->info().tool, "MaxCompiler");
  EXPECT_EQ(flows[5]->info().tool, "Bambu");
  EXPECT_EQ(flows[6]->info().tool, "Vivado HLS");
}

TEST(Flows, TableOneListsTypesAndOpenness) {
  std::string t1 = render_table1();
  EXPECT_NE(t1.find("LS/PR"), std::string::npos);
  EXPECT_NE(t1.find("Open-source"), std::string::npos);
  EXPECT_NE(t1.find("Commercial"), std::string::npos);
  EXPECT_NE(t1.find("Rule-based/RTL"), std::string::npos);
}

TEST(Flows, VerilogFlowEvaluates) {
  auto flows = make_flows();
  FlowResult r = flows[0]->evaluate();
  EXPECT_TRUE(r.initial.functional);
  EXPECT_TRUE(r.optimized.functional);
  EXPECT_GT(r.loc.initial, 100);
  EXPECT_GT(r.loc.optimized, r.loc.initial);  // the opt design is longer
  EXPECT_GT(r.loc.delta, 50);                 // substantial rework
  EXPECT_GT(r.optimized.quality(), r.initial.quality());
}

TEST(Flows, SweepCardinalitiesMatchThePaper) {
  auto flows = make_flows();
  // The expensive sweeps are counted without evaluating: check the cheap
  // ones end-to-end and the per-family counts via full size expectations.
  // The paper-shaped points (Verilog 3, Chisel 2) gained scheduler-staged
  // kernel points at stages {2, 4, 8} in PR 10.
  EXPECT_EQ(swept_points(*flows[0]), 6u);  // Verilog: 3 paper + 3 staged
  EXPECT_EQ(swept_points(*flows[1]), 5u);  // Chisel: 2 paper + 3 staged
  EXPECT_EQ(swept_points(*flows[4]), 2u);  // MaxJ
}

TEST(Flows, ChiselLocBeatsVerilog) {
  auto flows = make_flows();
  FlowResult v = flows[0]->evaluate();
  FlowResult c = flows[1]->evaluate();
  // The paper's central automation claim: the HC/HLS descriptions are
  // shorter than the Verilog baseline.
  EXPECT_LT(c.loc.initial, v.loc.initial);
  EXPECT_LT(c.loc.optimized, v.loc.optimized);
}

}  // namespace
}  // namespace hlshc::tools
