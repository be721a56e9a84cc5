// Tests for the BSV rule framework and design family: scheduler semantics
// (conflicts, urgency, conflict_free), bit-exactness of both designs, the
// measured scheduling bubble (periodicity 9), and the paper's finding that
// scheduler options barely move quality.
#include "bsv/designs.hpp"
#include "bsv/rules.hpp"

#include <gtest/gtest.h>

#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "idct/chenwang.hpp"
#include "sim/simulator.hpp"
#include "synth/synthesize.hpp"
#include "testutil.hpp"

namespace hlshc::bsv {
namespace {

using netlist::Design;
using netlist::kInvalidNode;
using netlist::NodeId;
using testutil::software_idct;
using testutil::uniform_coeff_block;

// ---- rule framework ----------------------------------------------------------

TEST(RuleFramework, NonConflictingRulesFireTogether) {
  RuleModule m("t");
  Design& d = m.design();
  NodeId a = m.mk_reg(8, 0, "a");
  NodeId b = m.mk_reg(8, 0, "b");
  NodeId one = d.constant(1, 1);
  m.add_rule("inc_a", one, {{a, d.add(a, d.constant(8, 1), 8), kInvalidNode}});
  m.add_rule("inc_b", one, {{b, d.add(b, d.constant(8, 2), 8), kInvalidNode}});
  ScheduleInfo info = m.compile();
  EXPECT_EQ(info.conflict_pairs, 0);
  Design design = m.take();
  design.output("a", a);
  design.output("b", b);
  sim::Simulator sim(design);
  sim.run(3);
  EXPECT_EQ(sim.output_i64("a"), 3);  // both rules fired every cycle
  EXPECT_EQ(sim.output_i64("b"), 6);
}

TEST(RuleFramework, ConflictingRulesSerializeByUrgency) {
  RuleModule m("t");
  Design& d = m.design();
  NodeId a = m.mk_reg(8, 0, "a");
  NodeId one = d.constant(1, 1);
  m.add_rule("set5", one, {{a, d.constant(8, 5), kInvalidNode}});
  m.add_rule("set9", one, {{a, d.constant(8, 9), kInvalidNode}});
  ScheduleInfo info = m.compile();
  EXPECT_EQ(info.conflict_pairs, 1);
  Design design = m.take();
  design.output("a", a);
  sim::Simulator sim(design);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 5);  // declaration order: set5 more urgent
}

TEST(RuleFramework, ReversedUrgencyFlipsWinner) {
  RuleModule m("t");
  Design& d = m.design();
  NodeId a = m.mk_reg(8, 0, "a");
  NodeId one = d.constant(1, 1);
  m.add_rule("set5", one, {{a, d.constant(8, 5), kInvalidNode}});
  m.add_rule("set9", one, {{a, d.constant(8, 9), kInvalidNode}});
  SchedulerOptions opt;
  opt.urgency = UrgencyOrder::kReversed;
  m.compile(opt);
  Design design = m.take();
  design.output("a", a);
  sim::Simulator sim(design);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 9);
}

TEST(RuleFramework, GuardGatesFiring) {
  RuleModule m("t");
  Design& d = m.design();
  NodeId go = d.input("go", 1);
  NodeId a = m.mk_reg(8, 42, "a");
  m.add_rule("w", go, {{a, d.constant(8, 1), kInvalidNode}});
  m.compile();
  Design design = m.take();
  design.output("a", a);
  sim::Simulator sim(design);
  sim.set_input("go", 0);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 42);
  sim.set_input("go", 1);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 1);
}

TEST(RuleFramework, PerActionEnableGatesWrite) {
  RuleModule m("t");
  Design& d = m.design();
  NodeId en = d.input("en", 1);
  NodeId a = m.mk_reg(8, 0, "a");
  NodeId b = m.mk_reg(8, 0, "b");
  NodeId one = d.constant(1, 1);
  m.add_rule("w", one,
             {{a, d.constant(8, 7), en},
              {b, d.constant(8, 3), kInvalidNode}});
  m.compile();
  Design design = m.take();
  design.output("a", a);
  design.output("b", b);
  sim::Simulator sim(design);
  sim.set_input("en", 0);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 0);  // enable off: no write
  EXPECT_EQ(sim.output_i64("b"), 3);  // unconditional action committed
}

TEST(RuleFramework, ConflictFreeAttributeUnblocks) {
  RuleModule m("t");
  Design& d = m.design();
  NodeId sel = d.input("sel", 1);
  NodeId a = m.mk_reg(8, 0, "a");
  NodeId one = d.constant(1, 1);
  // Two rules write `a` under disjoint enables; without the attribute the
  // scheduler would serialize them.
  m.add_rule("w0", one, {{a, d.constant(8, 5), d.bnot(sel, 1)}});
  m.add_rule("w1", one, {{a, d.constant(8, 9), sel}});
  m.mark_conflict_free("w0", "w1");
  ScheduleInfo info = m.compile();
  EXPECT_EQ(info.conflict_pairs, 0);
  Design design = m.take();
  design.output("a", a);
  sim::Simulator sim(design);
  sim.set_input("sel", 1);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 9);
  sim.set_input("sel", 0);
  sim.step();
  EXPECT_EQ(sim.output_i64("a"), 5);
}

TEST(RuleFramework, OneHotMuxStyleIsFunctionallyIdentical) {
  for (MuxStyle style : {MuxStyle::kPriorityChain, MuxStyle::kOneHotAndOr}) {
    RuleModule m("t");
    Design& d = m.design();
    NodeId go = d.input("go", 1);
    NodeId a = m.mk_reg(8, 0, "a");
    m.add_rule("inc", go, {{a, d.add(a, d.constant(8, 3), 8), kInvalidNode}});
    SchedulerOptions opt;
    opt.mux_style = style;
    m.compile(opt);
    Design design = m.take();
    design.output("a", a);
    sim::Simulator sim(design);
    sim.set_input("go", 1);
    sim.run(4);
    EXPECT_EQ(sim.output_i64("a"), 12);
  }
}

// ---- the designs --------------------------------------------------------------

struct BsvCase {
  const char* label;
  netlist::Design (*build)(const SchedulerOptions&);
  int latency;
  double periodicity;
};

// Print the label only, so test names are the same from run to run (the
// default prints the raw bytes, pointers included).
void PrintTo(const BsvCase& c, std::ostream* os) { *os << c.label; }

class BsvFamily : public ::testing::TestWithParam<BsvCase> {};

TEST_P(BsvFamily, BitExactAgainstSoftwareModel) {
  // The BSV designs use 32-bit units (a C translation), so they wrap like
  // int32 and are exact even on uniform full-range coefficients.
  netlist::Design d = GetParam().build({});
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(99);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(uniform_coeff_block(rng));
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), ins.size());
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(out[i], software_idct(ins[i])) << "matrix " << i;
  EXPECT_TRUE(tb.monitor().clean());
}

TEST_P(BsvFamily, MeasuredCycleBehaviour) {
  netlist::Design d = GetParam().build({});
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(100);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(uniform_coeff_block(rng));
  tb.run(ins);
  EXPECT_EQ(tb.timing().latency_cycles, GetParam().latency);
  EXPECT_DOUBLE_EQ(tb.timing().periodicity_cycles, GetParam().periodicity);
}

TEST_P(BsvFamily, BackpressureSafe) {
  netlist::Design d = GetParam().build({});
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  tb.sink().set_backpressure(1, 3);
  SplitMix64 rng(101);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(uniform_coeff_block(rng));
  auto out = tb.run(ins);
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(out[i], software_idct(ins[i]));
  EXPECT_TRUE(tb.monitor().clean());
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, BsvFamily,
    ::testing::Values(BsvCase{"initial", &build_bsv_initial, 18, 10.0},
                      BsvCase{"opt", &build_bsv_opt, 24, 9.0}),
    [](const ::testing::TestParamInfo<BsvCase>& info) {
      return info.param.label;
    });

TEST(BsvSchedule, OptHasExactlyTheEmitColFinishConflict) {
  ScheduleInfo info = schedule_of_bsv_opt();
  EXPECT_EQ(info.conflict_pairs, 1);
  bool found = false;
  for (const auto& r : info.rules)
    if (r.name == "col_finish")
      for (const auto& c : r.conflicts_with)
        if (c == "emit") found = true;
  EXPECT_TRUE(found) << "the paper's scheduling bubble should come from "
                        "emit vs col_finish";
}

TEST(BsvSchedule, TheBubbleIsThePaperSignature) {
  // Paper: "the periodicity is one cycle higher (9 instead of 8)". Confirm
  // the bubble exists and is exactly one cycle in steady state.
  netlist::Design d = build_bsv_opt();
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(102);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 10; ++i) ins.push_back(uniform_coeff_block(rng));
  tb.run(ins);
  EXPECT_DOUBLE_EQ(tb.timing().periodicity_cycles, 9.0);
}

TEST(BsvOptions, SweepBarelyMovesQuality) {
  // The paper synthesized 26 BSV circuits and found the settings have "a
  // negligible impact on the performance and area".
  std::vector<SchedulerOptions> configs;
  for (UrgencyOrder u : {UrgencyOrder::kDeclaration, UrgencyOrder::kReversed,
                         UrgencyOrder::kConflictSorted})
    for (MuxStyle s : {MuxStyle::kPriorityChain, MuxStyle::kOneHotAndOr})
      for (bool ac : {false, true}) {
        SchedulerOptions o;
        o.urgency = u;
        o.mux_style = s;
        o.aggressive_conditions = ac;
        configs.push_back(o);
      }
  double min_q = 1e18, max_q = 0;
  for (const auto& o : configs) {
    auto ns = synth::synthesize_normalized(build_bsv_opt(o));
    double q = ns.normal.fmax_mhz / static_cast<double>(ns.area());
    min_q = std::min(min_q, q);
    max_q = std::max(max_q, q);
  }
  EXPECT_LT(max_q / min_q, 1.10);  // within 10% across the whole sweep
}

TEST(BsvOptions, AllConfigsStayFunctional) {
  SplitMix64 rng(103);
  idct::Block in = uniform_coeff_block(rng);
  idct::Block want = software_idct(in);
  for (UrgencyOrder u : {UrgencyOrder::kDeclaration, UrgencyOrder::kReversed,
                         UrgencyOrder::kConflictSorted}) {
    for (MuxStyle s : {MuxStyle::kPriorityChain, MuxStyle::kOneHotAndOr}) {
      SchedulerOptions o;
      o.urgency = u;
      o.mux_style = s;
      netlist::Design d = build_bsv_opt(o);
      sim::Simulator sim(d);
      axis::StreamTestbench tb(sim);
      auto out = tb.run({in});
      EXPECT_EQ(out[0], want);
    }
  }
}

TEST(BsvSchedule, ReversedUrgencyGatesTvalidByMethodReadiness) {
  // Regression: with reversed urgency col_finish outranks emit, so the
  // interface's TVALID must drop on the cycles the emit method cannot be
  // scheduled — otherwise the sink double-samples a beat (this was a real
  // bug caught by the Fig. 1 sweep).
  SchedulerOptions o;
  o.urgency = UrgencyOrder::kReversed;
  netlist::Design d = build_bsv_opt(o);
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  SplitMix64 rng(104);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(uniform_coeff_block(rng));
  auto out = tb.run(ins);
  ASSERT_EQ(out.size(), ins.size());
  for (size_t i = 0; i < ins.size(); ++i)
    EXPECT_EQ(out[i], software_idct(ins[i]));
  EXPECT_TRUE(tb.monitor().clean());
}

}  // namespace
}  // namespace hlshc::bsv
