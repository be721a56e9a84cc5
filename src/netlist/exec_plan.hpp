// ExecPlan — one-time compilation of a netlist::Design into a flat,
// cache-friendly instruction stream for the compiled simulation engine.
//
// The interpreter (sim/simulator.cpp) re-walks the node graph every cycle:
// per node it chases the operand vector (a separate heap allocation per
// node), re-reads widths, and routes every value through BitVec temporaries.
// The ExecPlan does all of that work exactly once per design:
//
//   * levelize the combinational fabric — level 0 holds the cycle sources
//     (inputs, constants, register outputs), level k+1 everything whose
//     operands settle by level k — and lay the instructions out level by
//     level in one contiguous array;
//   * lower each node to a word-packed ExecInstr: operand slot indices,
//     the op-specific immediate, and precomputed wrap/zero-extension masks,
//     so the execution loop is a switch over a 48-byte struct with no
//     pointer chasing (every design value fits one machine word — BitVec
//     caps widths at 64 — and the sign-extended int64 slot encoding is
//     byte-compatible with BitVec's canonical form);
//   * precompute the sequential-state commit schedule: which slot each
//     register latches (and its enable), and each memory write port's
//     address/data/enable slots, in the same order the interpreter commits.
//
// Constants are hoisted out of the per-cycle stream into a one-time init
// list; register loads stay in the stream (level 0) because armed faults
// may rewrite them per cycle.
//
// Plans are immutable, self-contained (no back-reference into the Design,
// so a cached plan survives design copies) and cached per design:
// ExecPlan::for_design() compiles on first use and reuses the plan until
// the design is mutated.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/ir.hpp"

namespace hlshc::netlist {

/// One lowered node. `dst`/`a`/`b`/`c` index the engine's value-slot array
/// (slot i holds node i's value, sign-extended into an int64 exactly like
/// BitVec's canonical form). Unused operand fields alias slot 0 so the
/// execution loop can load them unconditionally. `imm` is op-specific:
/// shift amount (Shl/AShr/LShr), slice low bit (Slice), low-operand width
/// (Concat), memory depth (MemRead), canonical constant (Const), reset
/// value (Reg). Exactly 48 bytes: four instructions per pair of cache
/// lines, no padding holes.
struct ExecInstr {
  int32_t dst = 0;
  int32_t a = 0, b = 0, c = 0;
  int64_t imm = 0;
  uint64_t amask = 0;  ///< zero-extension mask of operand a's width
  uint64_t bmask = 0;  ///< zero-extension mask of operand b's width
  int32_t width = 1;
  Op op = Op::Const;
  uint8_t dsh = 63;  ///< 64 - width: branchless sign-extension shift pair
  int16_t mem = -1;
};
static_assert(sizeof(ExecInstr) == 48, "keep ExecInstr densely packed");

/// Register latch: `state[reg] = slot[next]` when enabled (enable < 0 means
/// always). Widths are equal by Design::validate, so the copy is verbatim.
struct RegCommit {
  int32_t reg = -1;
  int32_t next = -1;
  int32_t enable = -1;
  int64_t init = 0;  ///< canonical reset value
};

/// Memory write port: when `slot[enable]` is true, commit `slot[data]` to
/// word `(slot[addr] & addr_mask) % depth` of memory `mem`.
struct MemCommit {
  int32_t mem = -1;
  int32_t addr = -1;
  int32_t data = -1;
  int32_t enable = -1;
  uint64_t addr_mask = 0;
};

/// A memory's shape, copied out of the Design so the plan is self-contained.
struct MemShape {
  int width = 0;
  int depth = 0;
};

class ExecPlan {
 public:
  /// Compiles (and validates) the design. Prefer for_design(), which caches.
  explicit ExecPlan(const Design& design);

  /// The cached plan for `design`, compiling it on first use. The cache
  /// lives in the design and is dropped on mutation; the returned handle
  /// stays valid regardless. Safe to call concurrently for the same design
  /// (pool workers race on first compile; a process-wide
  /// mutex serializes the check-compile-store sequence). Mutating the
  /// design concurrently with for_design is still a data race.
  static std::shared_ptr<const ExecPlan> for_design(const Design& design);

  /// Per-cycle instruction stream, levelized: sorted by (level, opcode,
  /// node id) — same-level instructions are independent, so grouping by
  /// opcode keeps the dispatch branch predictable.
  const std::vector<ExecInstr>& instrs() const { return instrs_; }

  /// One-time constant materialization (run at engine construction/reset).
  const std::vector<ExecInstr>& const_instrs() const { return const_instrs_; }

  /// Sequential commit schedules, in interpreter order.
  const std::vector<RegCommit>& reg_commits() const { return reg_commits_; }
  const std::vector<MemCommit>& mem_commits() const { return mem_commits_; }

  const std::vector<MemShape>& mem_shapes() const { return mem_shapes_; }

  /// Index of the first instruction of each level, plus a final sentinel
  /// (so level l spans [level_starts[l], level_starts[l+1])).
  const std::vector<size_t>& level_starts() const { return level_starts_; }
  int depth() const { return static_cast<int>(level_starts_.size()) - 1; }

  size_t slot_count() const { return slot_count_; }

 private:
  std::vector<ExecInstr> instrs_;
  std::vector<ExecInstr> const_instrs_;
  std::vector<RegCommit> reg_commits_;
  std::vector<MemCommit> mem_commits_;
  std::vector<MemShape> mem_shapes_;
  std::vector<size_t> level_starts_;
  size_t slot_count_ = 0;
};

}  // namespace hlshc::netlist
