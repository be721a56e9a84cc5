// Unit tests for the netlist IR: construction, validation, topological
// ordering, statistics and the optimization passes.
#include "netlist/dump.hpp"
#include "netlist/ir.hpp"
#include "netlist/passes.hpp"

#include <gtest/gtest.h>

namespace hlshc::netlist {
namespace {

TEST(NetlistIr, BuildAndInspect) {
  Design d("t");
  NodeId a = d.input("a", 8);
  NodeId b = d.input("b", 8);
  NodeId s = d.add(a, b, 9);
  d.output("s", s);
  EXPECT_EQ(d.inputs().size(), 2u);
  EXPECT_EQ(d.outputs().size(), 1u);
  EXPECT_EQ(d.node(s).width, 9);
  EXPECT_EQ(d.find_input("a"), a);
  EXPECT_EQ(d.find_input("zz"), kInvalidNode);
  EXPECT_EQ(d.io_bit_count(), 8 + 8 + 9);
  EXPECT_NO_THROW(d.validate());
}

TEST(NetlistIr, DuplicatePortNamesRejected) {
  Design d("t");
  d.input("a", 8);
  EXPECT_THROW(d.input("a", 4), Error);
  NodeId c = d.constant(4, 1);
  d.output("o", c);
  EXPECT_THROW(d.output("o", c), Error);
}

TEST(NetlistIr, RegisterFeedbackLoopIsLegal) {
  Design d("counter");
  NodeId cnt = d.reg(4, 0, "cnt");
  NodeId nxt = d.add(cnt, d.constant(4, 1), 4);
  d.set_reg_next(cnt, nxt);
  d.output("q", cnt);
  EXPECT_NO_THROW(d.validate());
  auto order = d.topo_order();
  EXPECT_EQ(order.size(), d.node_count());
}

TEST(NetlistIr, CombinationalCycleDetected) {
  Design d("bad");
  NodeId a = d.input("a", 4);
  NodeId x = d.add(a, a, 4);
  // Force a cycle by making x depend on itself via mutable access.
  d.mutable_node(x).operands[1] = x;
  EXPECT_THROW(d.topo_order(), Error);
}

TEST(NetlistIr, RegWithoutNextFailsValidation) {
  Design d("t");
  d.reg(4, 0, "r");
  EXPECT_THROW(d.validate(), Error);
}

TEST(NetlistIr, MuxSelectorMustBeOneBit) {
  Design d("t");
  NodeId a = d.input("a", 4);
  NodeId m = d.mux(a, a, a, 4);  // 4-bit selector: caught by validate
  d.output("o", m);
  EXPECT_THROW(d.validate(), Error);
}

TEST(NetlistIr, SliceBoundsChecked) {
  Design d("t");
  NodeId a = d.input("a", 8);
  EXPECT_THROW(d.slice(a, 8, 0), Error);
  EXPECT_THROW(d.slice(a, 3, 4), Error);
  EXPECT_NO_THROW(d.slice(a, 7, 0));
}

TEST(NetlistIr, MemoryRoundTripNodes) {
  Design d("m");
  int mem = d.add_memory("buf", 16, 64);
  NodeId addr = d.input("addr", 6);
  NodeId data = d.input("data", 16);
  NodeId we = d.input("we", 1);
  d.mem_write(mem, addr, data, we);
  NodeId rd = d.mem_read(mem, addr);
  d.output("q", rd);
  EXPECT_NO_THROW(d.validate());
  EXPECT_EQ(d.mem_writes().size(), 1u);
  EXPECT_EQ(d.node(rd).width, 16);
}

TEST(NetlistIr, StatsCountOperatorClasses) {
  Design d("s");
  NodeId a = d.input("a", 8);
  NodeId k = d.constant(8, 3);
  NodeId m1 = d.mul(a, k, 16);       // const mult
  NodeId m2 = d.mul(a, a, 16);       // true mult
  NodeId s1 = d.add(m1, m2, 17);
  NodeId r = d.reg(17, 0, "r");
  d.set_reg_next(r, s1);
  d.output("o", r);
  DesignStats st = compute_stats(d);
  EXPECT_EQ(st.const_mults, 1);
  EXPECT_EQ(st.multipliers, 1);
  EXPECT_EQ(st.adders, 1);
  EXPECT_EQ(st.regs, 1);
  EXPECT_EQ(st.reg_bits, 17);
}

TEST(NetlistPasses, ConstantFolding) {
  Design d("f");
  NodeId a = d.constant(8, 5);
  NodeId b = d.constant(8, 7);
  NodeId s = d.add(a, b, 8);
  NodeId m = d.mul(s, d.constant(8, 2), 8);
  d.output("o", m);
  PassStats st = fold_constants(d);
  EXPECT_GE(st.folded, 2);
  EXPECT_EQ(d.node(m).op, Op::Const);
  EXPECT_EQ(d.node(m).imm, 24);
}

TEST(NetlistPasses, FoldRespectsWrapSemantics) {
  Design d("f");
  NodeId a = d.constant(8, 100);
  NodeId s = d.add(a, a, 8);  // 200 wraps to -56 at 8 bits
  d.output("o", s);
  fold_constants(d);
  EXPECT_EQ(d.node(s).imm, -56);
}

TEST(NetlistPasses, DeadCodeElimination) {
  Design d("dce");
  NodeId a = d.input("a", 8);
  NodeId used = d.add(a, a, 8);
  d.add(used, a, 8);  // dead
  d.mul(a, a, 16);    // dead
  d.output("o", used);
  PassStats st;
  Design out = eliminate_dead(d, &st);
  EXPECT_EQ(st.removed, 2);
  EXPECT_NO_THROW(out.validate());
  EXPECT_EQ(out.outputs().size(), 1u);
}

TEST(NetlistPasses, DcePreservesRegisterFeedback) {
  Design d("cnt");
  NodeId cnt = d.reg(4, 3, "cnt");
  d.set_reg_next(cnt, d.add(cnt, d.constant(4, 1), 4));
  d.output("q", cnt);
  Design out = optimize(d);
  EXPECT_NO_THROW(out.validate());
  // The counter must survive: a register and its increment logic.
  DesignStats st = compute_stats(out);
  EXPECT_EQ(st.regs, 1);
  EXPECT_EQ(st.adders, 1);
}

TEST(NetlistPasses, DcePreservesMemories) {
  Design d("m");
  int mem = d.add_memory("buf", 8, 16);
  NodeId addr = d.input("addr", 4);
  NodeId data = d.input("data", 8);
  d.mem_write(mem, addr, data, d.input("we", 1));
  d.output("q", d.mem_read(mem, addr));
  Design out = optimize(d);
  EXPECT_EQ(out.memories().size(), 1u);
  EXPECT_EQ(out.mem_writes().size(), 1u);
}

TEST(NetlistDump, TextAndDotContainStructure) {
  Design d("dumpme");
  NodeId a = d.input("a", 8);
  d.output("o", d.add(a, d.constant(8, 1), 8));
  std::string text = dump_text(d);
  EXPECT_NE(text.find("design dumpme"), std::string::npos);
  EXPECT_NE(text.find("add<8>"), std::string::npos);
}

}  // namespace
}  // namespace hlshc::netlist
