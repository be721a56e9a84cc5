// Error-path coverage: every public API that validates its inputs must
// reject bad usage with hlshc::Error (not UB, not silent misbehaviour).
#include <gtest/gtest.h>

#include "fault/harden.hpp"
#include "fault/model.hpp"
#include "framework/compose.hpp"
#include "netlist/instantiate.hpp"
#include "netlist/ir.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "synth/csd.hpp"

namespace hlshc {
namespace {

using netlist::Design;
using netlist::NodeId;

/// Toy DUT shared by the watchdog and fault-site error tests: an 8-bit
/// free-running counter with a 4-word scratch memory.
Design counter_with_mem() {
  Design d("counter");
  NodeId r = d.reg(8, 0, "cnt");
  d.set_reg_next(r, d.add(r, d.constant(8, 1), 8));
  d.output("q", r);
  int mem = d.add_memory("scratch", 8, 4);
  NodeId addr = d.slice(r, 1, 0);
  d.mem_write(mem, addr, r, d.constant(1, 1));
  d.output("m", d.mem_read(mem, addr));
  return d;
}

TEST(ErrorPaths, InstantiateMissingBindingThrows) {
  Design sub("sub");
  NodeId a = sub.input("a", 8);
  sub.output("o", a);
  Design host("host");
  EXPECT_THROW(netlist::instantiate(host, sub, {}), Error);
}

TEST(ErrorPaths, InstantiateWidthMismatchThrows) {
  Design sub("sub");
  NodeId a = sub.input("a", 8);
  sub.output("o", a);
  Design host("host");
  NodeId narrow = host.input("x", 4);
  EXPECT_THROW(netlist::instantiate(host, sub, {{"a", narrow}}), Error);
}

TEST(ErrorPaths, RegisterDoubleNextThrows) {
  Design d("d");
  NodeId r = d.reg(4, 0, "r");
  NodeId c = d.constant(4, 1);
  d.set_reg_next(r, c);
  EXPECT_THROW(d.set_reg_next(r, c), Error);
}

TEST(ErrorPaths, RegisterEnableMustBeOneBit) {
  Design d("d");
  NodeId r = d.reg(4, 0, "r");
  NodeId c = d.constant(4, 1);
  NodeId wide = d.constant(4, 1);
  EXPECT_THROW(d.set_reg_next(r, c, wide), Error);
}

TEST(ErrorPaths, MemoryBadShapeThrows) {
  Design d("d");
  EXPECT_THROW(d.add_memory("m", 0, 16), Error);
  EXPECT_THROW(d.add_memory("m", 8, 0), Error);
}

TEST(ErrorPaths, MemWriteEnableMustBeOneBit) {
  Design d("d");
  int mem = d.add_memory("m", 8, 4);
  NodeId a = d.input("a", 2);
  NodeId v = d.input("v", 8);
  EXPECT_THROW(d.mem_write(mem, a, v, v), Error);
}

TEST(ErrorPaths, SimulatorRejectsInvalidDesign) {
  Design d("d");
  d.reg(4, 0, "dangling");  // no next-value
  EXPECT_THROW(sim::Simulator{d}, Error);
}

TEST(ErrorPaths, VcdWithNoSignalsThrows) {
  Design d("d");
  NodeId a = d.input("a", 4);
  d.output("o", a);
  sim::Simulator sim(d);
  EXPECT_THROW(sim::VcdTrace(sim, {}), Error);
}

TEST(ErrorPaths, ComposeRejectsBadStoreWidth) {
  Design row("row");
  for (int i = 0; i < 8; ++i) {
    NodeId x = row.input("i" + std::to_string(i), 12);
    row.output("o" + std::to_string(i), row.sext(x, 32));
  }
  Design col = row;  // same shape is fine for the check under test
  EXPECT_THROW(framework::compose_row_col(framework::PassKernel{row, 0},
                                          framework::PassKernel{col, 0}, 8,
                                          "bad"),
               Error);
  EXPECT_THROW(framework::compose_row_col(framework::PassKernel{row, 0},
                                          framework::PassKernel{col, 0}, 40,
                                          "bad"),
               Error);
}

TEST(ErrorPaths, BitVecSliceAndConcatBounds) {
  BitVec v(8, 0x5A);
  EXPECT_THROW(BitVec::slice(v, 8, 0), Error);
  EXPECT_THROW(BitVec::concat(BitVec(40, 1), BitVec(40, 1)), Error);
}

TEST(ErrorPaths, RunRejectsNegativeCycleCount) {
  Design d = counter_with_mem();
  sim::Simulator sim(d);
  EXPECT_THROW(sim.run(-1), Error);
  sim.run(0);  // a no-op, not an error
  EXPECT_EQ(sim.cycle(), 0u);
}

TEST(ErrorPaths, WatchdogBudgetThrowsSimTimeout) {
  Design d = counter_with_mem();
  sim::Simulator sim(d);
  sim.set_cycle_budget(5);
  EXPECT_THROW(sim.run(10), sim::SimTimeout);
  EXPECT_EQ(sim.cycle(), 5u);  // stopped at the budget, not past it
  try {
    sim.step();
    FAIL() << "expected SimTimeout";
  } catch (const sim::SimTimeout& e) {
    EXPECT_EQ(e.cycles(), 5u);  // the exception carries the spent budget
  }
  sim.set_cycle_budget(0);  // disarm
  sim.run(10);
  EXPECT_EQ(sim.cycle(), 15u);
}

TEST(ErrorPaths, SimTimeoutIsAnError) {
  // Callers that only catch hlshc::Error must still see the watchdog.
  Design d = counter_with_mem();
  sim::Simulator sim(d);
  sim.set_cycle_budget(1);
  EXPECT_THROW(sim.run(2), Error);
}

TEST(ErrorPaths, FlipRegBitValidatesTarget) {
  Design d = counter_with_mem();
  sim::Simulator sim(d);
  EXPECT_THROW(sim.flip_reg_bit(d.find_output("q"), 0), Error);  // not a Reg
  NodeId r = netlist::kInvalidNode;
  for (size_t i = 0; i < d.node_count(); ++i)
    if (d.node(static_cast<NodeId>(i)).op == netlist::Op::Reg)
      r = static_cast<NodeId>(i);
  ASSERT_NE(r, netlist::kInvalidNode);
  EXPECT_THROW(sim.flip_reg_bit(r, 8), Error);   // bit past width
  EXPECT_THROW(sim.flip_reg_bit(r, -1), Error);  // negative bit
}

TEST(ErrorPaths, FlipMemBitValidatesTarget) {
  Design d = counter_with_mem();
  sim::Simulator sim(d);
  EXPECT_THROW(sim.flip_mem_bit(1, 0, 0), Error);   // no such memory
  EXPECT_THROW(sim.flip_mem_bit(0, 4, 0), Error);   // address past depth
  EXPECT_THROW(sim.flip_mem_bit(0, 0, 8), Error);   // bit past word width
  EXPECT_THROW(sim.flip_mem_bit(0, 0, -1), Error);  // negative bit
}

TEST(ErrorPaths, ValidateSiteRejectsBadFaultSites) {
  Design d = counter_with_mem();
  using fault::FaultKind;
  using fault::FaultSite;
  // SEU target must be a register.
  EXPECT_THROW(
      fault::validate_site(d, {FaultKind::kSeuReg, d.find_output("q")}),
      Error);
  NodeId r = netlist::kInvalidNode;
  NodeId mem_write = netlist::kInvalidNode;
  for (size_t i = 0; i < d.node_count(); ++i) {
    if (d.node(static_cast<NodeId>(i)).op == netlist::Op::Reg)
      r = static_cast<NodeId>(i);
    if (d.node(static_cast<NodeId>(i)).op == netlist::Op::MemWrite)
      mem_write = static_cast<NodeId>(i);
  }
  ASSERT_NE(r, netlist::kInvalidNode);
  ASSERT_NE(mem_write, netlist::kInvalidNode);
  // Bit index must fit the target's width.
  EXPECT_THROW(fault::validate_site(d, {FaultKind::kSeuReg, r, -1, 0, 8}),
               Error);
  // Memory id and address must exist; the bit must fit the word.
  EXPECT_THROW(fault::validate_site(
                   d, {FaultKind::kSeuMem, netlist::kInvalidNode, 1, 0, 0}),
               Error);
  EXPECT_THROW(fault::validate_site(
                   d, {FaultKind::kSeuMem, netlist::kInvalidNode, 0, 4, 0}),
               Error);
  EXPECT_THROW(fault::validate_site(
                   d, {FaultKind::kSeuMem, netlist::kInvalidNode, 0, 0, 8}),
               Error);
  // Stuck-at / transient probes on MemWrite sinks drive nothing.
  EXPECT_THROW(fault::validate_site(d, {FaultKind::kStuckAt1, mem_write}),
               Error);
  EXPECT_THROW(fault::validate_site(d, {FaultKind::kTransient, mem_write}),
               Error);
  // A well-formed site passes.
  fault::validate_site(d, {FaultKind::kSeuReg, r, -1, 0, 7, 3});
}

TEST(ErrorPaths, ArmingInvalidInjectorTargetThrows) {
  Design d = counter_with_mem();
  sim::Simulator sim(d);
  sim::LaneFault bad;
  bad.kind = sim::LaneFault::Kind::kStuck1;
  bad.node = static_cast<NodeId>(1 << 20);
  EXPECT_THROW(sim.arm_fault(bad), Error);
  EXPECT_EQ(sim.cycle(), 0u);  // simulator still usable
  sim.run(3);
  EXPECT_EQ(sim.cycle(), 3u);
}

TEST(ErrorPaths, HardeningRejectsUnusableDesigns) {
  Design no_out("no_out");
  no_out.input("a", 4);
  EXPECT_THROW(fault::tmr(no_out), Error);  // nothing to vote on
}

TEST(ErrorPaths, CsdHandlesBoundaryConstants) {
  EXPECT_EQ(synth::csd_nonzero_digits(0), 0);
  // Large magnitudes stay well-defined.
  EXPECT_GT(synth::csd_nonzero_digits((int64_t{1} << 40) - 1), 0);
  EXPECT_EQ(synth::csd_nonzero_digits(int64_t{1} << 40), 1);
}

}  // namespace
}  // namespace hlshc
