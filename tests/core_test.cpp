// Tests for the methodology layer: LOC counting, line diff, the metric
// equations, and the end-to-end evaluation procedure.
#include "core/diff.hpp"
#include "core/evaluate.hpp"
#include "core/loc.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"

#include <gtest/gtest.h>

#include "rtl/designs.hpp"

namespace hlshc::core {
namespace {

// ---- LOC ----------------------------------------------------------------------

TEST(Loc, CountsCodeCommentsAndBlanks) {
  const std::string text =
      "// header comment\n"
      "\n"
      "int x = 1;  // trailing comment counts as code\n"
      "/* block\n"
      "   comment */\n"
      "int y = 2;\n";
  LocCount c = count_loc(text, Language::kC);
  EXPECT_EQ(c.code, 2);
  EXPECT_EQ(c.comment, 3);
  EXPECT_EQ(c.blank, 1);
}

TEST(Loc, BlockCommentWithTrailingCode) {
  LocCount c = count_loc("/* a */ int x;\n", Language::kVerilog);
  EXPECT_EQ(c.code, 1);
}

TEST(Loc, ConfigFilesUseHashComments) {
  LocCount c = count_loc("# option\nfoo = 1\n\n", Language::kConfig);
  EXPECT_EQ(c.code, 1);
  EXPECT_EQ(c.comment, 1);
  EXPECT_EQ(c.blank, 1);
}

TEST(Loc, LanguageFromExtension) {
  EXPECT_EQ(language_of("a/idct.v"), Language::kVerilog);
  EXPECT_EQ(language_of("Idct.scala"), Language::kScala);
  EXPECT_EQ(language_of("Idct.bsv"), Language::kBsv);
  EXPECT_EQ(language_of("idct.x"), Language::kDslx);
  EXPECT_EQ(language_of("K.maxj"), Language::kMaxj);
  EXPECT_EQ(language_of("idct.c"), Language::kC);
  EXPECT_EQ(language_of("opt.cfg"), Language::kConfig);
}

TEST(Loc, ShippedSourcesAreCountable) {
  // Every file the flows account must exist and contain real code.
  const char* files[] = {
      "verilog/idct_initial.v", "verilog/idct_opt.v",
      "chisel/Butterfly.scala", "chisel/IdctInitial.scala",
      "chisel/IdctOpt.scala",   "bsv/IdctFuncs.bsv",
      "bsv/IdctInitial.bsv",    "bsv/IdctOpt.bsv",
      "dslx/idct.x",            "dslx/axis_adapter.v",
      "dslx/xls_opt.cfg",       "maxj/IdctMath.maxj",
      "maxj/IdctMatrixKernel.maxj", "maxj/IdctRowKernel.maxj",
      "maxj/IdctManager.maxj",  "c/idct.c",
      "c/axis_adapter.v",       "c/bambu_opt.cfg",
      "c/idct_vhls.c",          "c/idct_vhls_opt.c",
  };
  for (const char* f : files)
    EXPECT_GT(count_data_file(f, language_of(f)).code, 0) << f;
}

TEST(Loc, MissingFileThrows) {
  EXPECT_THROW(count_data_file("nope/missing.v", Language::kVerilog), Error);
}

// ---- diff ----------------------------------------------------------------------

TEST(Diff, IdenticalTextsHaveZeroDelta) {
  EXPECT_EQ(diff_lines("a\nb\nc\n", "a\nb\nc\n").delta(), 0);
}

TEST(Diff, AddsAndRemovals) {
  DiffCount d = diff_lines("a\nb\nc\n", "a\nx\nc\ny\n");
  EXPECT_EQ(d.removed, 1);  // b
  EXPECT_EQ(d.added, 2);    // x, y
  EXPECT_EQ(d.delta(), 3);
}

TEST(Diff, BlankLinesIgnored) {
  EXPECT_EQ(diff_lines("a\n\n\nb\n", "a\nb\n").delta(), 0);
}

TEST(Diff, ReorderCountsBothSides) {
  DiffCount d = diff_lines("a\nb\n", "b\na\n");
  EXPECT_EQ(d.delta(), 2);
}

// ---- metrics ---------------------------------------------------------------------

TEST(Metrics, AutomationEquationOne) {
  // Paper example: Chisel initial LOC 195 vs Verilog 247 -> 21.1%.
  EXPECT_NEAR(automation_percent(195, 247), 21.05, 0.1);
  EXPECT_DOUBLE_EQ(automation_percent(247, 247), 0.0);
  EXPECT_LT(automation_percent(300, 247), 0.0);
}

TEST(Metrics, ControllabilityEquationTwo) {
  // Paper: Chisel 1,942 vs Verilog 2,155 -> 90.1%.
  EXPECT_NEAR(controllability_percent(1942, 2155), 90.1, 0.1);
}

TEST(Metrics, FlexibilityEquationThree) {
  // Paper: Verilog (2155 - 230) / 258 = 7.5.
  EXPECT_NEAR(flexibility(2155, 230, 258), 7.46, 0.05);
  EXPECT_DOUBLE_EQ(flexibility(100, 50, 0), 0.0);
}

TEST(Metrics, QualityIsOpsPerArea) {
  ScatterPoint p;
  p.throughput_mops = 14.15;
  p.area = 6567;
  EXPECT_DOUBLE_EQ(p.quality(), 14.15e6 / 6567);
  p.area = 0;
  EXPECT_EQ(p.quality(), 0.0);
}

// ---- evaluation procedure -----------------------------------------------------------

TEST(Evaluate, VerilogInitialFullProcedure) {
  DesignEvaluation ev =
      evaluate_axis_design(rtl::build_verilog_initial());
  EXPECT_TRUE(ev.functional);
  EXPECT_EQ(ev.latency_cycles, 17);
  EXPECT_DOUBLE_EQ(ev.periodicity_cycles, 8.0);
  EXPECT_GT(ev.fmax_mhz, 20.0);
  EXPECT_GT(ev.area, 10000);
  EXPECT_EQ(ev.area, ev.n_lut_star + ev.n_ff_star);
  EXPECT_NEAR(ev.throughput_mops, ev.fmax_mhz / 8.0, 1e-9);
  EXPECT_GT(ev.quality(), 0.0);
}

TEST(Evaluate, DetectsTheOptimizationGain) {
  DesignEvaluation init =
      evaluate_axis_design(rtl::build_verilog_initial());
  DesignEvaluation opt = evaluate_axis_design(rtl::build_verilog_opt2());
  // Paper: quality x9.4 from initial to optimized Verilog.
  EXPECT_GT(opt.quality() / init.quality(), 3.0);
}

// ---- report ------------------------------------------------------------------------

TEST(Report, TableAlignsColumns) {
  Table t({"A", "Bee"});
  t.add_row({"longer", "x"});
  std::string s = t.render();
  EXPECT_NE(s.find("A       Bee"), std::string::npos);
  EXPECT_NE(s.find("longer  x"), std::string::npos);
}

TEST(Report, ScatterCsvShape) {
  std::vector<ScatterPoint> pts = {{"verilog", "initial", 6.99, 30396}};
  std::string csv = scatter_csv(pts);
  EXPECT_NE(csv.find("family,config,workload,throughput_mops,area,quality"),
            std::string::npos);
  EXPECT_NE(csv.find("verilog,initial,idct,6.990,30396,"), std::string::npos);
}

TEST(Report, HotspotTableRanksTogglesAndNamesNodes) {
  netlist::Design d("toy");
  netlist::NodeId a = d.input("busy_in", 8);
  netlist::NodeId b = d.input("quiet_in", 8);
  netlist::NodeId sum = d.add(a, b, 8);
  d.output("o", sum);

  sim::ActivityProfile p;
  p.cycles = 10;
  p.toggles.assign(d.node_count(), 0);
  p.reg_writes.assign(d.node_count(), 0);
  p.toggles[static_cast<size_t>(sum)] = 40;  // 4.00 toggles/cycle
  p.toggles[static_cast<size_t>(a)] = 7;

  std::string table = hotspot_table(d, p, 2);
  EXPECT_NE(table.find("activity hotspots: toy over 10 cycles"),
            std::string::npos);
  // Rank 1 is the adder (4.00 tgl/cyc), rank 2 the busier of the inputs;
  // top_n=2 keeps quiet_in out of the table entirely.
  EXPECT_NE(table.find("add"), std::string::npos);
  EXPECT_NE(table.find("busy_in"), std::string::npos);
  EXPECT_NE(table.find("4.00"), std::string::npos);
  EXPECT_EQ(table.find("quiet_in"), std::string::npos);
}

TEST(Report, HotspotTableFromLiveEngineRun) {
  netlist::Design d = rtl::build_verilog_opt2();
  std::unique_ptr<sim::Engine> e = sim::make_engine(d);
  e->set_activity_enabled(true);
  e->set_input("s_tvalid", 1);
  e->set_input("m_tready", 1);
  e->run(64);
  std::string table = hotspot_table(d, e->activity(), 10);
  EXPECT_NE(table.find("activity hotspots: verilog_opt2 over 64 cycles"),
            std::string::npos);
  EXPECT_NE(table.find("toggles"), std::string::npos);
}

TEST(Report, HotspotTableRejectsMismatchedProfile) {
  netlist::Design d = rtl::build_verilog_opt2();
  sim::ActivityProfile p;  // empty: built for no design at all
  EXPECT_THROW(hotspot_table(d, p, 10), hlshc::Error);
}

TEST(Report, ScatterSummaryGroupsByFamily) {
  std::vector<ScatterPoint> pts = {{"a", "1", 10, 100}, {"a", "2", 20, 100},
                                   {"b", "1", 1, 10}};
  std::string s = scatter_summary(pts);
  EXPECT_NE(s.find("a: 2 circuits"), std::string::npos);
  EXPECT_NE(s.find("b: 1 circuits"), std::string::npos);
}

}  // namespace
}  // namespace hlshc::core
