// The unified simulation-engine interface.
//
// Every consumer of cycle-accurate simulation — the AXI-Stream testbench and
// protocol monitors (src/axis), the evaluation procedure (src/core), the
// fault campaigns (src/fault), VCD tracing and the bench drivers — programs
// against `sim::Engine`. Two implementations exist:
//
//   * sim::Simulator (simulator.hpp) — the interpreter: a per-node walk
//     over the netlist graph in topological order, in BitVec math. Simple,
//     obviously correct, and kept as the differential-testing oracle.
//   * sim::CompiledSimulator (compiled.hpp) — a one-lane view over
//     sim::BatchSimulator (batch.hpp), the one compiled execution path:
//     the ExecPlan instruction stream over dense int64 value slots.
//
// The base class owns the two-phase cycle protocol (eval / commit / edge),
// the cycle counter and watchdog budget, port name resolution, and the one
// fault model (LaneFault: arming, validation and SEU timing), so both
// engines expose byte-identical semantics: the differential suite
// (tests/engine_diff_test.cpp) asserts identical outputs, cycle counts and
// fault classifications.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/bitvec.hpp"
#include "base/deadline.hpp"
#include "netlist/ir.hpp"

namespace hlshc::sim {

/// Structured watchdog outcome: a bounded simulation exceeded its cycle
/// budget. Thrown by Engine::step() when a cycle budget is armed and by
/// the AXI-Stream testbench when a run fails to complete — e.g. a fault
/// wedges a handshake and TVALID never asserts. Campaign drivers catch this
/// to classify the run as a hang instead of hanging themselves.
class SimTimeout : public Error {
 public:
  SimTimeout(const std::string& context, uint64_t cycles)
      : Error(context + " [SimTimeout after " + std::to_string(cycles) +
              " cycles]"),
        cycles_(cycles) {}

  uint64_t cycles() const { return cycles_; }

 private:
  uint64_t cycles_;
};

class Engine;

/// The minimal port-level view of one simulated run: poke inputs, peek node
/// values, read the cycle counter. The AXI-Stream drivers and protocol
/// monitors (src/axis) program against this interface instead of Engine, so
/// the same driver state machines serve a scalar Engine and each lane of a
/// sim::BatchSimulator — which is what makes lane-batched classifications
/// bitwise-identical to scalar runs by construction.
class PortAccess {
 public:
  virtual ~PortAccess() = default;

  virtual const netlist::Design& design() const = 0;

  /// Drive an Input node by id (resolve the port once, poke every cycle).
  virtual void poke(netlist::NodeId input, int64_t value) = 0;

  /// Value of any node after the most recent combinational settle.
  virtual BitVec value(netlist::NodeId id) const = 0;

  virtual uint64_t cycle() const = 0;
};

/// Per-node dynamic-activity counts, the repo's power/hotspot proxy.
/// Accumulated by the Engine base while activity profiling is enabled, from
/// value snapshots taken at every clock edge (the settled combinational
/// state about to be latched):
///
///   * toggles[n]     — bits of node n that changed between consecutive
///                      edges (popcount of the XOR, masked to the node
///                      width). CMOS dynamic power is proportional to
///                      exactly this switched capacitance, which is why the
///                      ranked toggle table doubles as a hotspot report.
///   * reg_writes[n]  — clock edges at which register n's enable held
///                      (an accepted latch, whether or not the value moved).
///   * mem_reads[m]   — edges at which some read port of memory m presented
///                      a different address than the previous edge.
///   * mem_writes[m]  — committed write transactions into memory m.
///
/// Both engines snapshot through the same canonical sign-extended int64
/// encoding, so every count is identical between interpreter and compiled
/// engine by construction — asserted by the differential suite.
struct ActivityProfile {
  uint64_t cycles = 0;               ///< edges accumulated
  std::vector<uint64_t> toggles;     ///< indexed by NodeId
  std::vector<uint64_t> reg_writes;  ///< indexed by NodeId; Reg nodes only
  std::vector<uint64_t> mem_reads;   ///< indexed by memory id
  std::vector<uint64_t> mem_writes;  ///< indexed by memory id
};

/// One armed fault, in the sim layer's own terms (src/fault sits above sim
/// in the layer order; fault::to_lane_fault converts its FaultSite). Every
/// engine speaks this one fault model: sim::Simulator applies it in BitVec
/// math, sim::BatchSimulator per lane in canonical int64 math.
struct LaneFault {
  enum class Kind : uint8_t {
    kNone,       ///< runs fault-free
    kStuck0,     ///< combinational bit forced to 0 every settle
    kStuck1,     ///< combinational bit forced to 1 every settle
    kTransient,  ///< combinational bit inverted during one cycle's settles
    kSeuReg,     ///< one register bit flips once at `cycle`
    kSeuMem,     ///< one memory-word bit flips once at `cycle`
  };
  Kind kind = Kind::kNone;
  netlist::NodeId node = netlist::kInvalidNode;  ///< target (not kSeuMem)
  int mem = -1;        ///< memory id (kSeuMem)
  int addr = 0;        ///< word address (kSeuMem)
  int bit = 0;         ///< bit index within the target value
  uint64_t cycle = 0;  ///< injection cycle (SEU/transient)

  bool combinational() const {
    return kind == Kind::kStuck0 || kind == Kind::kStuck1 ||
           kind == Kind::kTransient;
  }
  bool seu() const { return kind == Kind::kSeuReg || kind == Kind::kSeuMem; }
};

/// Throws hlshc::Error unless `fault` names a real bit of `design`: an
/// existing node (any op) for the combinational kinds, a register for
/// kSeuReg, an existing memory word for kSeuMem. kNone always passes.
void validate_lane_fault(const netlist::Design& design, const LaneFault& fault);

class Engine : public PortAccess {
 public:
  ~Engine() override = default;

  const netlist::Design& design() const override { return design_; }

  /// "interpreter" or "compiled"; shows up in bench output and reports.
  virtual const char* kind_name() const = 0;

  /// Resets registers to their init values, memories to zero, inputs to
  /// zero, and the cycle counter.
  void reset();

  /// Combinational propagation. Idempotent for fixed inputs/state.
  void eval();

  /// eval() then clock edge; advances the cycle counter. Throws SimTimeout
  /// when an armed cycle budget is exhausted.
  void step();

  /// Runs `n` clock cycles with inputs held. `n` must be non-negative; the
  /// count is handled as uint64_t internally so multi-billion-cycle
  /// campaigns cannot overflow.
  void run(int64_t n);

  void set_input(std::string_view port, const BitVec& value);
  void set_input(std::string_view port, int64_t value);

  /// Fast-path input drive by node id (resolve the port once, poke every
  /// cycle). The id must name an Input node of the design.
  void poke(netlist::NodeId input, int64_t value) override;

  /// Value of any node after the most recent eval()/step().
  BitVec value(netlist::NodeId id) const override = 0;

  BitVec output(std::string_view port) const;
  int64_t output_i64(std::string_view port) const;

  uint64_t cycle() const override { return cycle_; }

  // ---- robustness hooks ----------------------------------------------------

  /// Watchdog: step() throws SimTimeout once `cycle() >= max_cycles`.
  /// 0 (the default) disarms the budget.
  void set_cycle_budget(uint64_t max_cycles) { cycle_budget_ = max_cycles; }
  uint64_t cycle_budget() const { return cycle_budget_; }

  /// Wall-clock budget, the service-layer generalization of the cycle
  /// watchdog: step() polls the shared token every 256 cycles and throws
  /// DeadlineExceeded once it expires, so a runaway request fails inside
  /// its budget instead of wedging a worker. nullptr (default) disarms.
  void set_deadline(std::shared_ptr<const Deadline> deadline) {
    deadline_ = std::move(deadline);
  }
  const std::shared_ptr<const Deadline>& deadline() const {
    return deadline_;
  }

  /// Arms `fault`, replacing whatever was armed; kNone disarms. The fault
  /// is validated first, so a rejected one leaves the previous arming in
  /// place. An SEU fires once, when the cycle counter reaches fault.cycle
  /// (a cycle-0 SEU lands on the reset state); a stuck-at or transient
  /// rewrites its target's value at every settle.
  void arm_fault(const LaneFault& fault);
  void disarm_fault() { arm_fault(LaneFault{}); }

  /// SEU pokes: flip one bit of a register's current state / one bit of one
  /// memory word. Validates the target and throws hlshc::Error on a bad one.
  void flip_reg_bit(netlist::NodeId reg, int bit);
  void flip_mem_bit(int mem_id, int addr, int bit);

  /// Test hooks for memory state.
  virtual BitVec mem_peek(int mem_id, int addr) const = 0;
  virtual void mem_poke(int mem_id, int addr, const BitVec& value) = 0;

  // ---- activity profiling --------------------------------------------------

  /// Enables per-node activity accounting (see ActivityProfile). Enabling
  /// zeroes all counts; disabling freezes them for inspection. Off by
  /// default — a disabled engine pays one predicted branch per step().
  void set_activity_enabled(bool on);
  bool activity_enabled() const { return activity_; }
  /// The accumulated counts. Valid whenever profiling is or was enabled.
  const ActivityProfile& activity() const { return profile_; }

 protected:
  explicit Engine(const netlist::Design& design);

  // Engine-specific phases behind the shared two-phase cycle protocol.
  virtual void eval_comb() = 0;
  virtual void commit_state() = 0;   ///< latch registers, commit mem writes
  virtual void reset_state() = 0;    ///< regs to init, mems/inputs to zero
  virtual void poke_input(netlist::NodeId id, int64_t value) = 0;
  virtual void do_flip_reg_bit(netlist::NodeId reg, int bit, int width) = 0;
  virtual void do_flip_mem_bit(int mem_id, int addr, int bit, int width) = 0;
  /// Called after fault_ changed, so engines can rebuild any derived
  /// injection structures.
  virtual void on_fault_armed() {}

  /// Dump every node's current value, one canonical sign-extended int64 per
  /// node id, into `out` (node_count() entries). Both engines store values
  /// in BitVec's canonical form, so the activity accounting built on these
  /// snapshots is engine-independent.
  virtual void snapshot_values(int64_t* out) const = 0;

  const netlist::Design& design_;
  uint64_t cycle_ = 0;
  uint64_t cycle_budget_ = 0;  ///< 0 = unbounded
  std::shared_ptr<const Deadline> deadline_;  ///< nullptr = unbounded
  bool evaluated_ = false;
  LaneFault fault_;  ///< kNone = fault-free
  /// fault_.node for a combinational fault, else kInvalidNode.
  netlist::NodeId comb_node_ = netlist::kInvalidNode;

 private:
  void accumulate_activity();
  void fire_due_seu();  ///< flips the armed SEU's bit at its cycle, once

  bool seu_fired_ = false;

  // Activity-profiling state (set_activity_enabled builds the watch lists).
  bool activity_ = false;
  ActivityProfile profile_;
  std::vector<int64_t> act_prev_, act_cur_;  ///< edge snapshots
  bool act_prev_valid_ = false;
  std::vector<uint64_t> act_mask_;  ///< per-node width mask
  struct RegWatch {
    int32_t reg;
    int32_t enable;  ///< node id, or -1 for always-enabled
  };
  struct MemWatch {
    int32_t node;  ///< enable node (writes) / address node (reads)
    int32_t mem;
  };
  std::vector<RegWatch> act_regs_;
  std::vector<MemWatch> act_mem_reads_;
  std::vector<MemWatch> act_mem_writes_;
};

enum class EngineKind : uint8_t {
  kInterpreter,  ///< sim::Simulator — the per-node graph walker (oracle)
  kCompiled,     ///< sim::CompiledSimulator — the ExecPlan instruction stream
};

const char* engine_kind_name(EngineKind kind);

/// Factory over both engines. The design must outlive the engine.
std::unique_ptr<Engine> make_engine(const netlist::Design& design,
                                    EngineKind kind = EngineKind::kCompiled);

}  // namespace hlshc::sim
