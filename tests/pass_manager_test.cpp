// The unified compile pipeline: pass registry, PassManager fixed-point
// driver, the new optimization passes (CSE, copy propagation, mux/boolean
// simplification, strength reduction), the differential verify hook, and
// the tools::compile canonical entry that every flow routes through.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "base/rng.hpp"
#include "netlist/ir.hpp"
#include "netlist/pass_manager.hpp"
#include "netlist/passes.hpp"
#include "rtl/designs.hpp"
#include "sim/engine.hpp"
#include "sim/verify.hpp"
#include "tools/compile.hpp"

namespace hlshc::netlist {
namespace {

/// Engine trace over both implementations for behavioural comparison.
std::vector<int64_t> trace(const Design& d, sim::EngineKind kind,
                           uint64_t seed = 7, int cycles = 12) {
  std::unique_ptr<sim::Engine> eng = sim::make_engine(d, kind);
  eng->reset();
  SplitMix64 rng(seed);
  std::vector<int64_t> out;
  for (int t = 0; t < cycles; ++t) {
    for (NodeId in : d.inputs()) {
      const Node& n = d.node(in);
      eng->set_input(n.name,
                     BitVec(n.width, static_cast<int64_t>(rng.next())));
    }
    eng->eval();
    for (NodeId o : d.outputs())
      out.push_back(eng->output(d.node(o).name).to_int64());
    eng->step();
  }
  return out;
}

void expect_equivalent(const Design& a, const Design& b) {
  for (sim::EngineKind kind :
       {sim::EngineKind::kInterpreter, sim::EngineKind::kCompiled})
    EXPECT_EQ(trace(a, kind), trace(b, kind))
        << "designs diverged on the " << sim::engine_kind_name(kind)
        << " engine";
}

size_t count_op(const Design& d, Op op) {
  size_t n = 0;
  for (size_t i = 0; i < d.node_count(); ++i)
    if (d.node(static_cast<NodeId>(i)).op == op) ++n;
  return n;
}

// ---- registry --------------------------------------------------------------

TEST(PassRegistry, ListsAllPassesAndInstantiatesThem) {
  auto names = registered_pass_names();
  ASSERT_EQ(names.size(), 7u);
  for (const char* expected :
       {"fold_constants", "narrow", "strength_reduce", "mux_simplify",
        "copy_prop", "cse", "eliminate_dead"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  for (const std::string& n : names) {
    auto pass = make_pass(n);
    ASSERT_NE(pass, nullptr);
    EXPECT_EQ(pass->name(), n);
  }
}

TEST(PassRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_pass("not_a_pass"), Error);
  PassManager pm;
  EXPECT_THROW(pm.add("not_a_pass"), Error);
}

TEST(PassRegistry, DefaultPipelineOrder) {
  PassManager base = default_pipeline();
  EXPECT_EQ(base.size(), 6u);
  EXPECT_EQ(base.pass_names()[1], "narrow");
  PassManager pre_narrow = default_pipeline(/*strength_reduce=*/false,
                                            /*narrow=*/false);
  EXPECT_EQ(pre_narrow.size(), 5u);
  PassManager sr = default_pipeline(/*strength_reduce=*/true);
  EXPECT_EQ(sr.size(), 7u);
  auto names = sr.pass_names();
  EXPECT_EQ(names.front(), "fold_constants");
  EXPECT_EQ(names[1], "narrow");
  EXPECT_EQ(names[2], "strength_reduce");
  EXPECT_EQ(names.back(), "eliminate_dead");
}

// ---- CSE -------------------------------------------------------------------

TEST(Cse, MergesStructuralDuplicates) {
  Design d("cse");
  NodeId a = d.input("a", 8), b = d.input("b", 8);
  NodeId s1 = d.add(a, b, 9);
  NodeId s2 = d.add(a, b, 9);  // identical
  d.output("o", d.bxor(s1, s2, 9));
  Design t = d;
  EXPECT_GT(eliminate_common_subexpr(t), 0);
  t = eliminate_dead(t);
  EXPECT_LT(t.node_count(), d.node_count());
  expect_equivalent(d, t);
}

TEST(Cse, MatchesCommutativeOperandOrder) {
  Design d("cse_comm");
  NodeId a = d.input("a", 8), b = d.input("b", 8);
  NodeId s1 = d.add(a, b, 9);
  NodeId s2 = d.add(b, a, 9);  // same value, swapped operands
  NodeId m1 = d.mul(a, b, 16);
  NodeId m2 = d.mul(b, a, 16);
  d.output("o1", d.bxor(s1, s2, 9));
  d.output("o2", d.bxor(m1, m2, 16));
  Design t = d;
  EXPECT_GE(eliminate_common_subexpr(t), 2);
  expect_equivalent(d, t);
}

TEST(Cse, DoesNotMergeNonCommutativeSwaps) {
  Design d("cse_sub");
  NodeId a = d.input("a", 8), b = d.input("b", 8);
  NodeId s1 = d.sub(a, b, 9);
  NodeId s2 = d.sub(b, a, 9);  // different value!
  d.output("o", d.bxor(s1, s2, 9));
  Design t = d;
  eliminate_common_subexpr(t);
  expect_equivalent(d, t);
}

TEST(Cse, LeavesRegistersAlone) {
  Design d("cse_reg");
  NodeId a = d.input("a", 8);
  NodeId r1 = d.reg(8, 0, "r1");
  NodeId r2 = d.reg(8, 0, "r2");  // same shape but distinct state
  d.set_reg_next(r1, a);
  d.set_reg_next(r2, d.bnot(a, 8));
  d.output("o", d.bxor(r1, r2, 8));
  Design t = d;
  eliminate_common_subexpr(t);
  EXPECT_EQ(count_op(t, Op::Reg), 2u);
  expect_equivalent(d, t);
}

// ---- copy propagation ------------------------------------------------------

TEST(CopyProp, ForwardsThroughWiringOps) {
  Design d("cp");
  NodeId a = d.input("a", 8);
  NodeId c1 = d.sext(a, 8);              // same-width sext
  NodeId c2 = d.slice(c1, 7, 0);         // full-range slice
  NodeId c3 = d.shl(c2, 0, 8);           // shift by zero
  d.output("o", d.add(c3, a, 9));
  Design t = d;
  EXPECT_GT(propagate_copies(t), 0);
  // After DCE the wiring chain is gone: the add reads the input directly.
  t = eliminate_dead(t);
  EXPECT_EQ(count_op(t, Op::SExt), 0u);
  EXPECT_EQ(count_op(t, Op::Slice), 0u);
  expect_equivalent(d, t);
}

TEST(CopyProp, KeepsWidthChangingOps) {
  Design d("cp_widen");
  NodeId a = d.input("a", 8);
  NodeId wide = d.sext(a, 12);  // widening: NOT a copy
  d.output("o", wide);
  Design t = d;
  EXPECT_EQ(propagate_copies(t), 0);
  expect_equivalent(d, t);
}

// ---- mux / boolean simplification ------------------------------------------

TEST(MuxSimplify, ConstantSelectPicksBranch) {
  Design d("mux_const");
  NodeId a = d.input("a", 8), b = d.input("b", 8);
  NodeId sel = d.constant(1, 1);
  d.output("o", d.mux(sel, a, b, 8));
  Design t = d;
  EXPECT_GT(simplify_mux_bool(t), 0);
  expect_equivalent(d, t);
}

TEST(MuxSimplify, IdenticalBranchesCollapse) {
  Design d("mux_same");
  NodeId a = d.input("a", 8);
  NodeId s = d.input("s", 1);
  d.output("o", d.mux(s, a, a, 8));
  Design t = d;
  EXPECT_GT(simplify_mux_bool(t), 0);
  expect_equivalent(d, t);
}

TEST(MuxSimplify, BooleanAndArithmeticIdentities) {
  Design d("ident");
  NodeId a = d.input("a", 8);
  NodeId zero = d.constant(8, 0);
  NodeId ones = d.constant(8, -1);
  NodeId one = d.constant(8, 1);
  d.output("and0", d.band(a, zero, 8));   // -> 0
  d.output("or1", d.bor(a, ones, 8));     // -> ~0
  d.output("xorx", d.bxor(a, a, 8));      // -> 0
  d.output("add0", d.add(a, zero, 8));    // -> a
  d.output("subx", d.sub(a, a, 8));       // -> 0
  d.output("mul1", d.mul(a, one, 8));     // -> a
  d.output("nn", d.bnot(d.bnot(a, 8), 8));  // -> a
  d.output("eqx", d.eq(a, a));            // -> 1
  Design t = d;
  EXPECT_GE(simplify_mux_bool(t), 8);
  expect_equivalent(d, t);
  // A second application finds nothing new (fixed point per pass).
  Design again = t;
  simplify_mux_bool(again);
  expect_equivalent(t, again);
}

// ---- strength reduction ----------------------------------------------------

TEST(StrengthReduce, ExpandsConstantMultiplies) {
  Design d("sr");
  NodeId a = d.input("a", 12);
  NodeId c = d.constant(12, 181);  // the paper's 0.5*sqrt(2) scale constant
  d.output("o", d.mul(a, c, 24));
  Design t = d;
  EXPECT_EQ(strength_reduce_mults(t), 1);
  t.validate();
  EXPECT_EQ(count_op(t, Op::Mul), 0u);
  expect_equivalent(d, t);
  // Idempotent: nothing left to expand.
  EXPECT_EQ(strength_reduce_mults(t), 0);
}

TEST(StrengthReduce, LeavesVariableMultipliesAlone) {
  Design d("sr_var");
  NodeId a = d.input("a", 8), b = d.input("b", 8);
  d.output("o", d.mul(a, b, 16));
  Design t = d;
  EXPECT_EQ(strength_reduce_mults(t), 0);
  EXPECT_EQ(count_op(t, Op::Mul), 1u);
}

TEST(StrengthReduce, PreservesRegisterFeedbackAndNegatives) {
  Design d("sr_reg");
  NodeId a = d.input("a", 10);
  NodeId r = d.reg(20, 3, "acc");
  NodeId scaled = d.mul(a, d.constant(10, -23), 20);
  d.set_reg_next(r, d.add(r, scaled, 20));
  d.output("o", r);
  Design t = d;
  EXPECT_EQ(strength_reduce_mults(t), 1);
  t.validate();
  expect_equivalent(d, t);
}

TEST(StrengthReduce, BuildShiftAddMatchesMultiply) {
  for (int64_t c : {0LL, 1LL, -1LL, 7LL, 100LL, -255LL, 1024LL}) {
    Design d("bsa");
    NodeId a = d.input("a", 12);
    d.output("ref", d.mul(a, d.constant(12, c), 24));
    for (bool csd : {true, false}) {
      Design t("bsa_tree");
      NodeId x = t.input("a", 12);
      t.output("ref", build_shift_add(t, x, c, 24, csd));
      t.validate();
      expect_equivalent(d, t);
    }
  }
}

// ---- PassManager -----------------------------------------------------------

TEST(PassManagerDriver, ReachesAFixedPoint) {
  Design d = rtl::build_verilog_initial();
  PassStats stats;
  Design out = default_pipeline().run(d, &stats);
  EXPECT_GE(stats.iterations, 1);
  EXPECT_LE(stats.iterations, 10);
  EXPECT_LT(out.node_count(), d.node_count());
  // Re-running the pipeline on its own output changes nothing.
  PassStats again;
  Design out2 = default_pipeline().run(out, &again);
  EXPECT_EQ(out2.node_count(), out.node_count());
  EXPECT_EQ(again.nodes_delta(), 0);
}

TEST(PassManagerDriver, SingleIterationWhenFixedPointDisabled) {
  Design d = rtl::build_verilog_initial();
  PassStats stats;
  PipelineOptions opts;
  opts.fixed_point = false;
  default_pipeline().run(d, &stats, opts);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_EQ(stats.runs.size(), default_pipeline().size());
}

TEST(PassManagerDriver, StatsBreakdownCoversEveryRun) {
  Design d = rtl::build_verilog_initial();
  PassStats stats;
  Design out = default_pipeline().run(d, &stats);
  ASSERT_FALSE(stats.runs.empty());
  EXPECT_EQ(stats.nodes_before(), d.node_count());
  EXPECT_EQ(stats.nodes_after(), out.node_count());
  EXPECT_EQ(stats.nodes_delta(),
            static_cast<int64_t>(d.node_count()) -
                static_cast<int64_t>(out.node_count()));
  auto names = registered_pass_names();
  int total = 0;
  for (const PassRun& run : stats.runs) {
    EXPECT_NE(std::find(names.begin(), names.end(), run.pass), names.end());
    EXPECT_GE(run.iteration, 1);
    EXPECT_GE(run.changes, 0);
    EXPECT_GE(run.wall_ns, 0);
    total += run.changes;
  }
  EXPECT_GT(total, 0);
}

TEST(PassManagerDriver, StatsMergeAccumulates) {
  PassStats a, b;
  a.folded = 2;
  a.iterations = 1;
  a.runs.push_back({"fold_constants", 1, 2, 100, 98, 5});
  b.removed = 3;
  b.iterations = 2;
  b.runs.push_back({"eliminate_dead", 1, 3, 98, 95, 7});
  a.merge(b);
  EXPECT_EQ(a.folded, 2);
  EXPECT_EQ(a.removed, 3);
  EXPECT_EQ(a.iterations, 3);
  ASSERT_EQ(a.runs.size(), 2u);
  EXPECT_EQ(a.nodes_before(), 100u);
  EXPECT_EQ(a.nodes_after(), 95u);
  EXPECT_EQ(a.nodes_delta(), 5);
}

TEST(PassManagerDriver, OptimizeMatchesLegacyBehaviour) {
  // A design where fold + DCE both fire: a fully-constant subtree feeding
  // an output through foldable arithmetic, plus a dead multiply.
  Design d("legacy");
  NodeId a = d.input("a", 8);
  NodeId c = d.add(d.constant(8, 3), d.constant(8, 4), 8);  // folds to 7
  d.mul(a, a, 16);  // dead
  d.output("o", d.add(a, c, 9));
  PassStats stats;
  Design out = optimize(d, &stats);
  EXPECT_GT(stats.folded, 0);
  EXPECT_GT(stats.removed, 0);
  EXPECT_LT(out.node_count(), d.node_count());
  expect_equivalent(d, out);
}

// ---- verify mode -----------------------------------------------------------

/// A deliberately broken pass: flips the first Add it finds into a Sub.
class BrokenSwapPass : public Pass {
 public:
  std::string name() const override { return "broken_swap"; }
  int run(Design& d) override {
    for (size_t i = 0; i < d.node_count(); ++i) {
      Node& n = d.mutable_node(static_cast<NodeId>(i));
      if (n.op == Op::Add) {
        n.op = Op::Sub;
        return 1;
      }
    }
    return 0;
  }
};

TEST(VerifyMode, CleanPipelinePassesVerification) {
  Design d = rtl::build_verilog_opt2();
  PipelineOptions opts;
  opts.verifier = sim::make_pass_verifier({/*cycles=*/8, /*seed=*/11});
  PassStats stats;
  EXPECT_NO_THROW(default_pipeline().run(d, &stats, opts));
  EXPECT_GT(stats.nodes_delta(), 0);
}

TEST(VerifyMode, BrokenPassIsCaughtAndNamed) {
  Design d("victim");
  NodeId a = d.input("a", 8), b = d.input("b", 8);
  d.output("o", d.add(a, b, 9));
  PassManager pm;
  pm.add(std::make_unique<BrokenSwapPass>());
  PipelineOptions opts;
  opts.verifier = sim::make_pass_verifier();
  try {
    pm.run(d, nullptr, opts);
    FAIL() << "broken pass escaped verification";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broken_swap"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyMode, DiffDesignsDetectsPortMismatch) {
  Design a("a");
  a.output("x", a.constant(4, 1));
  Design b("b");
  b.output("y", b.constant(4, 1));
  auto diff = sim::diff_designs(a, b);
  ASSERT_TRUE(diff.has_value());
}

TEST(VerifyMode, DiffDesignsAcceptsEquivalentRewrites) {
  Design a("a");
  NodeId x = a.input("x", 8);
  a.output("o", a.add(x, x, 9));
  Design b("b");
  NodeId y = b.input("x", 8);
  b.output("o", b.shl(b.sext(y, 9), 1, 9));  // x+x == x<<1
  EXPECT_FALSE(sim::diff_designs(a, b).has_value());
}

// ---- tools::compile (the canonical entry) ----------------------------------

TEST(ToolsCompile, DisabledPipelineIsIdentity) {
  Design d = rtl::build_verilog_opt2();
  tools::CompileOptions off;
  off.optimize = false;
  tools::CompiledDesign c = tools::compile(d, off);
  EXPECT_EQ(c.design.node_count(), d.node_count());
  EXPECT_TRUE(c.stats.runs.empty());
}

TEST(ToolsCompile, PipelineShrinksAndVerifies) {
  Design d = rtl::build_verilog_initial();
  tools::CompileOptions on;
  on.verify = true;
  on.verify_cycles = 8;
  tools::CompiledDesign c = tools::compile(d, on);
  EXPECT_LT(c.design.node_count(), d.node_count());
  EXPECT_GT(c.stats.nodes_delta(), 0);
  expect_equivalent(d, c.design);
}

TEST(ToolsCompile, SynthRoutesThroughThePipeline) {
  Design d = rtl::build_verilog_initial();
  synth::SynthReport direct = synth::synthesize(d);
  synth::SynthReport routed = tools::compile_synth(d);
  // synthesize() folds internally, so both see optimized logic; the routed
  // path must not be worse.
  EXPECT_LE(routed.n_lut, direct.n_lut);
  netlist::PassStats stats;
  synth::NormalizedSynth ns =
      tools::compile_synth_normalized(d, {}, {}, &stats);
  EXPECT_GT(ns.area(), 0);
  EXPECT_FALSE(stats.runs.empty());
}

TEST(ToolsCompile, RenderPassBreakdownNamesPassesAndDesign) {
  Design d = rtl::build_verilog_initial();
  tools::CompiledDesign c = tools::compile(d);
  std::string table = tools::render_pass_breakdown("verilog_initial",
                                                   c.stats);
  EXPECT_NE(table.find("verilog_initial"), std::string::npos);
  EXPECT_NE(table.find("fold_constants"), std::string::npos);
  EXPECT_NE(table.find("eliminate_dead"), std::string::npos);
}

}  // namespace
}  // namespace hlshc::netlist
