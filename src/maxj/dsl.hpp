// MaxJ-flavoured dataflow kernel DSL with MaxCompiler-style auto-pipelining.
//
// A MaxJ kernel describes a statically scheduled dataflow graph; the
// compiler inserts a pipeline register after every arithmetic node and
// automatically *balances* the graph — when two values of different
// pipeline depth meet, the shallower one is delayed so both arrive in the
// same tick. That scheduling discipline is why the paper's matrix-per-cycle
// MaxJ kernel comes out as a 47-stage pipeline running at the highest
// frequency of all designs while spending by far the most flip-flops.
//
// DFEVar carries (node, width, depth); KernelBuilder implements:
//   * arithmetic (+ - * with a constant, shifts) — depth max(in)+1,
//     balancing registers inserted on the shallower operand;
//   * stream.offset(v, -k) — k extra delay registers;
//   * control counters and comparisons (depth-0 control plane values get
//     balanced like any other var);
//   * explicit width semantics (32-bit like the reference C, so kernels
//     wrap exactly like the int32 software model).
#pragma once

#include <cstdint>
#include <string>

#include "netlist/ir.hpp"

namespace hlshc::maxj {

class KernelBuilder;

/// A dataflow value: netlist node + pipeline depth (ticks since input).
struct DFEVar {
  netlist::NodeId id = netlist::kInvalidNode;
  int width = 0;
  int depth = 0;
};

class KernelBuilder {
 public:
  explicit KernelBuilder(std::string name) : design_(std::move(name)) {}

  // ---- streams -------------------------------------------------------------
  DFEVar input(const std::string& port, int width);
  /// Output port; the value is first balanced to the kernel's final depth
  /// when finish() runs, so call output() for all results then finish().
  void output(const std::string& port, const DFEVar& v);

  /// Output wired without balancing — for schedule/control outputs (e.g.
  /// the "iready" pacing signal) that must not be delayed.
  void output_raw(const std::string& port, const DFEVar& v);

  // ---- arithmetic (auto-pipelined: result depth = max(operands)+1) ---------
  DFEVar add(const DFEVar& a, const DFEVar& b);
  DFEVar sub(const DFEVar& a, const DFEVar& b);
  DFEVar mulc(const DFEVar& a, int64_t constant);  ///< constant multiply
  // ---- wiring (no pipeline stage) -------------------------------------------
  DFEVar shl(const DFEVar& a, int amount);
  DFEVar ashr(const DFEVar& a, int amount);
  DFEVar constant(int64_t value, int width = 32);

  // ---- control --------------------------------------------------------------
  /// Free-running modulo counter (control.count.simpleCounter).
  DFEVar counter(int modulo, const std::string& label);
  DFEVar eq(const DFEVar& a, int64_t value);
  DFEVar le(const DFEVar& a, int64_t value);
  DFEVar logic_and(const DFEVar& a, const DFEVar& b);

  /// stream.offset(v, -k): v delayed k ticks.
  DFEVar offset(const DFEVar& v, int back);

  /// Clamp to [-256,255] and narrow to 9 bits (one pipeline stage).
  DFEVar clip9(const DFEVar& v);

  /// A register whose next value is chosen by `enable ? next : hold`;
  /// depth is treated as `depth_hint` (scratch state, not stream data).
  DFEVar state_reg(int width, const std::string& label);
  void state_update(const DFEVar& reg, const DFEVar& enable,
                    const DFEVar& next);

  /// Align `v` to depth `d` (inserting delay registers; d >= v.depth).
  DFEVar balance(const DFEVar& v, int d);

  /// Deepest value seen so far — the kernel's pipeline depth.
  int max_depth() const { return max_depth_; }
  int balancing_regs() const { return balancing_regs_; }

  /// Registers every pending output at max_depth() and returns the design.
  netlist::Design finish();

  netlist::Design& design() { return design_; }

 private:
  DFEVar wrap(netlist::NodeId id, int w, int depth) {
    max_depth_ = std::max(max_depth_, depth);
    return DFEVar{id, w, depth};
  }
  std::pair<DFEVar, DFEVar> aligned(const DFEVar& a, const DFEVar& b);
  netlist::NodeId delay1(netlist::NodeId v, const std::string& label);

  netlist::Design design_;
  std::vector<std::pair<std::string, DFEVar>> pending_outputs_;
  int max_depth_ = 0;
  int balancing_regs_ = 0;
};

}  // namespace hlshc::maxj
