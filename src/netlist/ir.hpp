// Word-level netlist intermediate representation.
//
// Every design family in this repository — Verilog-style structural RTL,
// the Chisel-style eDSL, compiled BSV rule schedules, XLS pipelines, MaxJ
// kernels and the output of the mini HLS compiler — elaborates to this one
// IR. A single cycle-accurate simulator (src/sim) and a single synthesis
// cost model (src/synth) then make all flows directly comparable, mirroring
// the paper's methodology where every tool's output funnels through Vivado.
//
// The IR is a DAG of fixed-width nodes. Sequential elements are `Reg` nodes
// (operands: next-value and optional enable) and `MemWrite` sinks attached to
// declared memories; `Reg` breaks combinational cycles. All
// arithmetic is signed two's complement, wrapped to the node width — the
// semantics of BitVec.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/bitvec.hpp"
#include "base/check.hpp"

namespace hlshc::netlist {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

enum class Op : uint8_t {
  Input,    ///< top-level input port; `name` is the port name
  Output,   ///< top-level output port; operand 0 is the driven value
  Const,    ///< literal; `imm` holds the signed value
  Add, Sub, Mul, Neg,
  Shl, AShr, LShr,            ///< shift by constant amount `imm`
  And, Or, Xor, Not,
  Eq, Ne, Slt, Sle, Sgt, Sge, Ult,   ///< comparisons; 1-bit result
  Mux,      ///< operands: sel (1 bit), then-value, else-value
  Slice,    ///< bits [imm2:imm] of operand 0
  Concat,   ///< {op0, op1} with op0 as the MSB part
  SExt, ZExt,
  Reg,      ///< operands: next [, enable]; `imm` is the reset value
  MemRead,  ///< combinational read; operand 0 = address, `mem` = memory id
  MemWrite, ///< sink; operands: address, data, enable; `mem` = memory id
};

const char* op_name(Op op);

struct Node {
  Op op = Op::Const;
  int width = 1;                  ///< result width in bits (1..64)
  std::vector<NodeId> operands;   ///< indices into Design::nodes
  int64_t imm = 0;                ///< const value / shift amount / slice lo / reg init
  int64_t imm2 = 0;               ///< slice hi
  int32_t mem = -1;               ///< memory id for MemRead/MemWrite
  std::string name;               ///< port name, or optional debug label
};

/// A synchronous-write, combinational-read memory (distributed-RAM-like).
/// BRAM-style registered reads are modelled by placing a Reg after MemRead.
struct Memory {
  std::string name;
  int width = 0;   ///< word width in bits
  int depth = 0;   ///< number of words
};

/// A complete synchronous single-clock design.
class Design {
 public:
  explicit Design(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- construction ------------------------------------------------------

  NodeId input(const std::string& port_name, int width);
  NodeId output(const std::string& port_name, NodeId value);
  NodeId constant(int width, int64_t value);

  NodeId add(NodeId a, NodeId b, int width);
  NodeId sub(NodeId a, NodeId b, int width);
  NodeId mul(NodeId a, NodeId b, int width);
  NodeId neg(NodeId a, int width);
  NodeId shl(NodeId a, int amount, int width);
  NodeId ashr(NodeId a, int amount, int width);
  NodeId band(NodeId a, NodeId b, int width);
  NodeId bor(NodeId a, NodeId b, int width);
  NodeId bxor(NodeId a, NodeId b, int width);
  NodeId bnot(NodeId a, int width);
  NodeId eq(NodeId a, NodeId b);
  NodeId ne(NodeId a, NodeId b);
  NodeId slt(NodeId a, NodeId b);
  NodeId sle(NodeId a, NodeId b);
  NodeId sgt(NodeId a, NodeId b);
  NodeId sge(NodeId a, NodeId b);
  NodeId mux(NodeId sel, NodeId t, NodeId f, int width);
  NodeId slice(NodeId a, int hi, int lo);
  NodeId concat(NodeId hi, NodeId lo);
  NodeId sext(NodeId a, int width);
  NodeId zext(NodeId a, int width);

  /// A register with reset value `init`. The next-value operand may be set
  /// later via `set_reg_next` to allow feedback loops.
  NodeId reg(int width, int64_t init = 0, const std::string& label = {});
  void set_reg_next(NodeId reg_node, NodeId next,
                    NodeId enable = kInvalidNode);

  int add_memory(const std::string& mem_name, int width, int depth);
  NodeId mem_read(int mem_id, NodeId addr);
  NodeId mem_write(int mem_id, NodeId addr, NodeId data, NodeId enable);

  // ---- inspection --------------------------------------------------------

  const Node& node(NodeId id) const {
    HLSHC_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
                "bad node id " << id << " in design '" << name_ << '\'');
    return nodes_[static_cast<size_t>(id)];
  }
  size_t node_count() const { return nodes_.size(); }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& mem_writes() const { return mem_writes_; }
  const std::vector<Memory>& memories() const { return memories_; }

  NodeId find_input(std::string_view port_name) const;
  NodeId find_output(std::string_view port_name) const;

  /// Total input + output port bits (the paper's N_IO, before clock/reset).
  int io_bit_count() const;

  /// Combinational topological order over all nodes. Reg values are treated
  /// as cycle sources (their operands are still ordered, as next-value
  /// logic). Throws hlshc::Error on a combinational cycle.
  ///
  /// The order is computed once and cached until the design is mutated, so
  /// constructing thousands of simulators over one design (a fault campaign)
  /// re-sorts the graph exactly once. The returned reference is invalidated
  /// by any mutation; use topo_order_shared() to hold it across mutations.
  const std::vector<NodeId>& topo_order() const;

  /// The cached order as a shared handle that stays valid (though stale)
  /// even if the design is later mutated. Engines hold this.
  std::shared_ptr<const std::vector<NodeId>> topo_order_shared() const;

  /// Structural sanity: operand ids valid, widths legal, mux selectors
  /// 1 bit, every Reg has a next-value, memory ids in range. A successful
  /// validation is cached until the design is mutated; failures are not.
  void validate() const;

  // Mutation hooks used by optimization passes (src/netlist/passes).
  // Handing out a mutable node conservatively drops every derived cache.
  Node& mutable_node(NodeId id) {
    invalidate_caches();
    return nodes_[static_cast<size_t>(id)];
  }

  /// Opaque per-design cache slot for the compiled execution plan
  /// (netlist::ExecPlan). Owned here so the plan's lifetime follows the
  /// design's and mutation drops it with the other derived caches; only
  /// exec_plan.cpp reads or writes it — and only under the process-wide
  /// compile mutex in ExecPlan::for_design(), because pool workers
  /// may race on a design's first compile. Mutation (which
  /// clears the slot) must still be externally synchronized, like every
  /// other Design method.
  const std::shared_ptr<const void>& cached_exec_plan() const {
    return exec_plan_cache_;
  }
  void set_cached_exec_plan(std::shared_ptr<const void> plan) const {
    exec_plan_cache_ = std::move(plan);
  }

 private:
  NodeId push(Node n);
  NodeId binary(Op op, NodeId a, NodeId b, int width);
  NodeId unary(Op op, NodeId a, int width);
  NodeId compare(Op op, NodeId a, NodeId b);
  void check_id(NodeId id) const;
  void invalidate_caches() {
    topo_cache_.reset();
    validated_ = false;
    exec_plan_cache_.reset();
  }

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> mem_writes_;
  std::vector<Memory> memories_;

  // Derived-data caches (single-threaded use, like the rest of the class).
  mutable std::shared_ptr<const std::vector<NodeId>> topo_cache_;
  mutable bool validated_ = false;
  mutable std::shared_ptr<const void> exec_plan_cache_;
};

/// Aggregate statistics used by reports and tests.
struct DesignStats {
  int nodes = 0;
  int regs = 0;
  int reg_bits = 0;
  int adders = 0;       ///< Add/Sub/Neg
  int multipliers = 0;  ///< Mul with two non-constant operands
  int const_mults = 0;  ///< Mul with one constant operand
  int muxes = 0;
  int memories = 0;
};

DesignStats compute_stats(const Design& d);

}  // namespace hlshc::netlist
