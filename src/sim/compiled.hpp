// The compiled simulation engine: a one-lane view over sim::BatchSimulator.
//
// BatchSimulator is the only compiled execution path — the ExecPlan
// instruction stream over dense int64 value slots, ISA-dispatched stream
// kernels, per-lane fault transforms. This class adapts one lane of it to
// the sim::Engine protocol (two-phase cycle, watchdog, activity profiling,
// SEU timing), so the scalar testbench, the evaluation procedure and the
// benches run the same code a lane-batched campaign does.
#pragma once

#include <cstdint>

#include "sim/batch.hpp"
#include "sim/engine.hpp"

namespace hlshc::sim {

class CompiledSimulator : public Engine {
 public:
  /// The design must outlive the engine. Compiles the design's ExecPlan on
  /// first use and reuses the per-design cached plan thereafter.
  explicit CompiledSimulator(const netlist::Design& design)
      : Engine(design), batch_(design, 1) {
    reset();
  }

  const char* kind_name() const override { return "compiled"; }

  BitVec value(netlist::NodeId id) const override {
    return batch_.value(0, id);
  }

  BitVec mem_peek(int mem_id, int addr) const override {
    return batch_.mem_peek(0, mem_id, addr);
  }
  void mem_poke(int mem_id, int addr, const BitVec& value) override {
    batch_.mem_poke(0, mem_id, addr, value);
  }

 protected:
  void eval_comb() override { batch_.eval_all(); }
  void commit_state() override { batch_.latch_all(); }
  void reset_state() override { batch_.reset_all(); }
  void poke_input(netlist::NodeId id, int64_t value) override {
    batch_.poke_input(0, id, value);
  }
  void do_flip_reg_bit(netlist::NodeId reg, int bit, int) override {
    batch_.flip_reg_bit(0, reg, bit);
  }
  void do_flip_mem_bit(int mem_id, int addr, int bit, int) override {
    batch_.flip_mem_bit(0, mem_id, addr, bit);
  }
  /// Combinational faults ride the batch's per-lane transforms; SEUs stay
  /// with the Engine base, which flips them through do_flip_*_bit.
  void on_fault_armed() override {
    batch_.arm_lane_fault(0, fault_.combinational() ? fault_ : LaneFault{});
  }
  void snapshot_values(int64_t* out) const override {
    for (size_t i = 0; i < design_.node_count(); ++i)
      out[i] = batch_.value_i64(0, static_cast<netlist::NodeId>(i));
  }

 private:
  BatchSimulator batch_;
};

}  // namespace hlshc::sim
