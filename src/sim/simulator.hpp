// The interpreting simulation engine for netlist::Design.
//
// Walks the node graph in a precomputed topological order every cycle,
// computing each node through BitVec. Simple and obviously correct — it is
// the differential-testing oracle the compiled engine (compiled.hpp) is
// checked against. The shared two-phase cycle protocol (eval / clock-edge
// commit), watchdog, port resolution and fault arming live in the
// sim::Engine base (engine.hpp); the fault transforms themselves are applied
// here in BitVec math, independent of the compiled engine's int64 math.
//
// The simulator is the measurement instrument of the reproduction: the
// evaluation procedure (src/core) drives a design's AXI-Stream interface
// through it to verify functional correctness against the ISO 13818-4 C
// model and to *measure* latency and periodicity, never trusting a design's
// claimed cycle counts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/bitvec.hpp"
#include "netlist/ir.hpp"
#include "sim/engine.hpp"

namespace hlshc::sim {

class Simulator : public Engine {
 public:
  /// The design must outlive the simulator. Validates the design.
  explicit Simulator(const netlist::Design& design);

  const char* kind_name() const override { return "interpreter"; }

  BitVec value(netlist::NodeId id) const override {
    return values_[static_cast<size_t>(id)];
  }

  /// Test hooks for memory state.
  BitVec mem_peek(int mem_id, int addr) const override;
  void mem_poke(int mem_id, int addr, const BitVec& value) override;

 protected:
  void eval_comb() override;
  void commit_state() override;
  void reset_state() override;
  void poke_input(netlist::NodeId id, int64_t value) override;
  void do_flip_reg_bit(netlist::NodeId reg, int bit, int width) override;
  void do_flip_mem_bit(int mem_id, int addr, int bit, int width) override;
  void snapshot_values(int64_t* out) const override;

 private:
  void compute(netlist::NodeId id);
  /// The armed stuck-at/transient fault applied to its target's value.
  BitVec apply_comb_fault(const BitVec& value) const;

  std::shared_ptr<const std::vector<netlist::NodeId>> order_;
  std::vector<BitVec> values_;     ///< per-node value after eval
  std::vector<BitVec> reg_state_;  ///< per-node register state (Reg only)
  std::vector<std::vector<BitVec>> mem_state_;
  std::vector<netlist::NodeId> regs_;
};

}  // namespace hlshc::sim
