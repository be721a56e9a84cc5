// sim::BatchSimulator — the one compiled execution path: lane-batched
// execution of one shared ExecPlan.
//
// A fault campaign (or a multi-stimulus evaluation) runs the *same* design
// over N independent input/fault trajectories. This backend fetches each
// 48-byte ExecInstr once and applies it across `lanes` independent runs in
// an inner loop the compiler can auto-vectorize; one lane is the scalar
// compiled engine (sim::CompiledSimulator is a one-lane view of this class):
//
//   * value storage is lane-major per slot: slot s of lane l lives at
//     values_[s * lanes + l], in 64-byte-aligned contiguous arrays, so the
//     per-instruction inner loop reads/writes `lanes` consecutive words;
//   * the per-cycle loop is specialized for fixed trip counts (1/2/4/8/16/32
//     lanes) with a generic path for any other count, and the whole
//     kernel set is compiled per-ISA (baseline + x86-64-v3/v4) with the
//     widest supported set picked at runtime (sim/batch_kernels.hpp);
//   * registers, memories and the commit schedules are replicated per lane;
//   * per-lane poke/peek/reset APIs (poke_input(lane, id, v),
//     value(lane, id), step_all()) advance all lanes in lockstep.
//
// Fault injection is per-lane: each lane owns its armed site (LaneFault).
// Armed stuck-at/transient faults split the instruction stream into
// segments at their target slots; every segment runs on the same stream
// kernel and the transforms apply at segment ends, so a faulted sweep
// executes the same instructions as a clean one. The transforms are the
// interpreter's BitVec fault math (sim::Simulator) in canonical int64 form,
// and the cycle protocol reproduces Engine::reset()/step() ordering exactly
// (including the double eval per testbench cycle and the cycle-0 SEU flip
// on reset), so every lane's trajectory is bitwise-identical to the same
// run on the interpreter oracle — asserted every-node-every-cycle by
// tests/batch_test.
//
// Lanes that diverge (finish, detect, hang) are masked out by the harness
// (axis::BatchStreamTestbench) rather than forcing a batch-wide slow path:
// the batch keeps stepping, finished lanes are refilled or retired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "base/bitvec.hpp"
#include "base/deadline.hpp"
#include "netlist/exec_plan.hpp"
#include "netlist/ir.hpp"
#include "sim/engine.hpp"

namespace hlshc::sim {

/// Minimal cache-line-aligned allocator for the lane-major value arrays:
/// a slot's lane group starts on a 64-byte boundary (for the common lane
/// batch), so the auto-vectorized inner loops issue aligned loads/stores.
template <typename T>
struct CacheAlignedAlloc {
  using value_type = T;
  CacheAlignedAlloc() = default;
  template <typename U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{64});
  }
  template <typename U>
  bool operator==(const CacheAlignedAlloc<U>&) const {
    return true;
  }
};

/// Lane-major value storage: 64-byte aligned, contiguous.
using LaneVec = std::vector<int64_t, CacheAlignedAlloc<int64_t>>;

class BatchSimulator {
 public:
  /// Compiles (or reuses) the design's ExecPlan and replicates state for
  /// `lanes` independent runs. `lanes` must be in [1, 64].
  BatchSimulator(const netlist::Design& design, int lanes);

  const netlist::Design& design() const { return design_; }
  int lanes() const { return lanes_; }
  /// Lanes still being simulated (lanes() minus retired ones).
  int active_lanes() const { return live_; }
  uint64_t cycle() const { return cycle_; }
  /// One lane's own cycle count: the sweep cycle minus the lane's start
  /// cycle. Equal to cycle() until the lane is refilled mid-sweep, after
  /// which the lane restarts from 0 — so a refilled lane's drivers, fault
  /// schedule, and timing all see the same cycle numbers a fresh scalar run
  /// would.
  uint64_t lane_cycle(int lane) const {
    return cycle_ - base_[static_cast<size_t>(lane)];
  }

  /// Engine::reset() for every lane: registers to init, memories/inputs to
  /// zero, cycle counter to 0, then each lane's cycle-0 SEU flip.
  void reset_all();

  /// Combinational settle of all lanes (idempotent for fixed inputs/state).
  void eval_all();

  /// The clock edge of every lane: latch registers and memory writes from
  /// the settled values, advance the cycle counter, apply due SEU flips.
  /// The caller settles before (eval_all) and after, as Engine::step does.
  void latch_all();

  /// Engine::step() for every lane in lockstep: settle, latch_all(), settle
  /// again. Polls the armed deadline every 256 cycles like Engine::step.
  void step_all();

  /// Drive one lane's Input node (canonicalized exactly like Engine::poke).
  void poke_input(int lane, netlist::NodeId id, int64_t value);

  /// One lane's value of any node after the most recent settle. The lane
  /// must not be retired.
  BitVec value(int lane, netlist::NodeId id) const;
  int64_t value_i64(int lane, netlist::NodeId id) const {
    return values_[at(static_cast<size_t>(id), lane)];
  }

  /// One lane's memory word (peek) / overwrite of it (poke, canonicalized
  /// to the memory width).
  BitVec mem_peek(int lane, int mem_id, int addr) const;
  void mem_poke(int lane, int mem_id, int addr, const BitVec& value);

  /// SEU pokes on one live lane: flip one bit of a register's current state
  /// / one bit of one memory word. Targets are validated by the caller
  /// (Engine::flip_reg_bit / flip_mem_bit, arm_lane_fault).
  void flip_reg_bit(int lane, netlist::NodeId reg, int bit);
  void flip_mem_bit(int lane, int mem_id, int addr, int bit);

  /// Arms `fault` on one lane (replacing whatever was armed), healing any
  /// const slot the previous fault had rewritten. kNone disarms. Validated
  /// by sim::validate_lane_fault. The fault's cycle is interpreted on the
  /// lane's own clock (lane_cycle), so arming after a refill behaves
  /// exactly like arming before reset_all.
  void arm_lane_fault(int lane, const LaneFault& fault);
  void disarm_lane_fault(int lane) { arm_lane_fault(lane, LaneFault{}); }

  /// Restarts one live lane mid-sweep with a fresh trajectory: per-lane
  /// Engine::reset() (registers to init, memory/inputs to zero, consts
  /// rematerialized), the lane clock rebased to 0, `fault` armed on the
  /// new clock, and a lane-cycle-0 SEU fired on the reset state — the
  /// refilled lane's trajectory is bitwise-identical to a scalar run of
  /// the same fault from reset. Other lanes are unaffected. This is what
  /// lets a fault campaign stream fresh sites into lanes freed by early
  /// finishers instead of draining a whole group behind a hang straggler.
  void refill_lane(int lane, const LaneFault& fault);

  /// Removes a finished lane from the batch. Reading or poking a retired
  /// lane is invalid until the next reset_all(), which revives every lane.
  /// Remaining lanes' trajectories are unaffected. Physically, the lane's
  /// column is only *marked* dead; columns are compacted out of the
  /// lane-major arrays lazily, once at least half the storage is dead, so a
  /// batch retiring N lanes pays O(log N) compaction passes instead of N.
  /// This is what keeps a long-tail lane (e.g. a hang candidate running to
  /// its cycle budget) from dragging the whole group: as siblings finish
  /// and retire, the sweep shrinks toward scalar cost.
  void retire_lane(int lane);
  bool lane_retired(int lane) const {
    return retired_[static_cast<size_t>(lane)] != 0;
  }

  /// Wall-clock budget shared by all lanes; nullptr (default) disarms.
  void set_deadline(std::shared_ptr<const Deadline> deadline) {
    deadline_ = std::move(deadline);
  }

  /// Port-level view of one lane, compatible with every sim::Engine
  /// consumer in src/axis (drivers, monitors). Valid for the simulator's
  /// lifetime.
  PortAccess& lane(int l);

 private:
  /// One lane's port-level adapter.
  class LaneView final : public PortAccess {
   public:
    const netlist::Design& design() const override { return sim_->design(); }
    void poke(netlist::NodeId input, int64_t value) override {
      sim_->poke_input(lane_, input, value);
    }
    BitVec value(netlist::NodeId id) const override {
      return sim_->value(lane_, id);
    }
    uint64_t cycle() const override { return sim_->lane_cycle(lane_); }

   private:
    friend class BatchSimulator;
    BatchSimulator* sim_ = nullptr;
    int lane_ = 0;
  };

  /// One armed combinational transform, pre-resolved for the exec loop.
  struct CombEntry {
    /// Instruction index whose result the transform rewrites; -1 for
    /// inputs and constants, which have no per-cycle instruction and
    /// transform before the stream runs.
    int64_t after = -1;
    int32_t slot = 0;  ///< target node / value slot
    int32_t lane = 0;
    LaneFault::Kind kind = LaneFault::Kind::kNone;
    int bit = 0;
    uint64_t cycle = 0;   ///< transient fire cycle
    uint8_t dsh = 63;     ///< 64 - width: canonicalization shift pair
    bool is_const = false;
    int64_t imm = 0;  ///< const rematerialization value (is_const only)
  };

  void eval_stream_injected();
  void apply_comb_entry(const CombEntry& e);
  /// Index of (row, lane) in a lane-major array: slot, register or memory
  /// word `row`, the lane's physical column.
  size_t at(size_t row, int lane) const {
    return row * static_cast<size_t>(active_) +
           static_cast<size_t>(phys_[static_cast<size_t>(lane)]);
  }
  int64_t& cell(int lane, netlist::NodeId slot) {
    return values_[at(static_cast<size_t>(slot), lane)];
  }
  void seu_flips();          ///< fire due SEU flips (cycle_ == fault.cycle)
  void fire_seu(int lane, const LaneFault& f);
  void restore_consts(int lane);
  void rebuild_comb_index();
  void compact_dead();       ///< drop every dead column from storage
  void revive_lanes();       ///< undo retirement: full-width arrays again

  const netlist::Design& design_;
  std::shared_ptr<const netlist::ExecPlan> plan_;
  /// ISA- and lane-count-specialized stream kernel, selected once at
  /// construction (see sim/batch_kernels.hpp for the dispatch story).
  void (*stream_kernel_)(const netlist::ExecInstr*, size_t, int64_t*,
                         int64_t*, std::vector<LaneVec>*, int) = nullptr;
  int lanes_ = 1;
  int active_ = 1;  ///< current storage stride (live + dead-uncompacted)
  int live_ = 1;    ///< lanes_ minus retired
  uint64_t cycle_ = 0;
  bool evaluated_ = false;
  std::shared_ptr<const Deadline> deadline_;

  // Lane-major storage: slot s, (logical) lane l at s * active_ + phys_[l].
  // Retirement compacts columns out, so the stride is active_, not lanes_.
  LaneVec values_;
  LaneVec state_;
  std::vector<LaneVec> mem_;  ///< word w, lane l at w*active_+phys_[l]

  /// Logical lane -> physical column; -1 once the column was compacted
  /// away. A retired lane keeps a valid (dead) column until the next
  /// compact_dead(). Identity after any reset_all().
  std::vector<int> phys_;
  std::vector<uint8_t> retired_;  ///< per logical lane
  /// Sweep cycle at which each lane's current trajectory started (0 after
  /// reset_all; the refill cycle after refill_lane). Armed fault cycles
  /// are stored rebased onto the sweep clock: faults_[l].cycle ==
  /// base_[l] + the lane-relative cycle the caller armed.
  std::vector<uint64_t> base_;

  std::vector<LaneFault> faults_;      ///< per logical lane; kNone = disarmed
  std::vector<uint8_t> seu_fired_;     ///< per logical lane: SEU applied
  /// Armed comb faults of all live lanes, ordered by `after`.
  std::vector<CombEntry> comb_entries_;
  /// Per slot: index of the instruction computing it, -1 for inputs and
  /// constants (built once; segments the stream at armed slots).
  std::vector<int64_t> instr_of_slot_;
  std::vector<LaneView> views_;
};

}  // namespace hlshc::sim
