// Netlist optimization and analysis passes.
//
// These model the front half of what a logic-synthesis tool does before
// technology mapping: folding constant subexpressions, propagating through
// wiring ops, and sweeping dead logic. The HLS backend and the eDSL layers
// emit netlists naively and rely on these passes — the same division of
// labour the evaluated tools have with Vivado.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/ir.hpp"

namespace hlshc::netlist {

/// One pass execution inside a pipeline: which pass ran, on which pipeline
/// iteration, how many rewrites it made, and the node-count/wall-time cost.
struct PassRun {
  std::string pass;
  int iteration = 0;       ///< fixed-point round the run belonged to
  int changes = 0;         ///< rewritten operand slots / replaced nodes
  size_t nodes_before = 0;
  size_t nodes_after = 0;
  int64_t wall_ns = 0;
};

struct PassStats {
  int folded = 0;    ///< nodes replaced by constants
  int removed = 0;   ///< dead nodes eliminated
  int iterations = 0;          ///< fixed-point rounds executed
  std::vector<PassRun> runs;   ///< per-pass breakdown, in execution order

  /// Node counts at the pipeline boundaries (0 when no pass ran).
  size_t nodes_before() const;
  size_t nodes_after() const;
  /// Nodes eliminated end-to-end (negative if a pass expanded the design).
  int64_t nodes_delta() const {
    return static_cast<int64_t>(nodes_before()) -
           static_cast<int64_t>(nodes_after());
  }
  void merge(const PassStats& other);
};

/// Evaluates every node whose operands are all constants and replaces it
/// with a Const node (in place). Iterates to a fixed point.
PassStats fold_constants(Design& d);

/// Rebuilds `d` without nodes unreachable from outputs, register
/// next-values, and memory writes. Returns the new design; `d` is untouched.
Design eliminate_dead(const Design& d, PassStats* stats = nullptr);

/// Hash-based common-subexpression elimination: combinational nodes with
/// identical (op, width, imm, resolved operands) are merged onto the earliest
/// occurrence (commutative ops match either operand order). Duplicates are
/// left dead for eliminate_dead. Returns the number of rewritten references.
int eliminate_common_subexpr(Design& d);

/// Copy/wire propagation: forwards users of width-preserving wiring nodes
/// (same-width SExt/ZExt, full-range Slice, shift-by-zero) to the underlying
/// source. Returns the number of rewritten operand references.
int propagate_copies(Design& d);

/// Mux and boolean/arithmetic identity simplification: mux(c,a,a), constant
/// selects, x&0, x|~0, x^x, x+0, x-0, x*{0,1,-1}, double Not/Neg, and
/// comparisons of a node with itself. Rewrites nodes in place (using SExt as
/// the width-adapted copy). Returns the number of rewrites.
int simplify_mux_bool(Design& d);

/// Width narrowing: rewrites costed nodes (adders, subtractors, multipliers,
/// muxes, shifters, registers) to the effective width proven by
/// netlist::RangeAnalysis, inserting minimal SExt adapters where a consumer
/// reads the raw declared-width pattern. Port widths never change. Returns
/// the number of nodes narrowed; `d` is rebuilt when any were.
int narrow_widths(Design& d);

/// Multiply-by-constant strength reduction: expands Mul nodes with exactly
/// one Const operand into the CSD shift-add form used by `synth/csd` (the
/// paper's hand-optimization recipe, applied mechanically). Returns the
/// number of multiplies expanded.
int strength_reduce_mults(Design& d);

/// Builds `x * constant` as a shift-add/sub tree at `width` bits, using CSD
/// recoding (csd=true) or plain binary digits. Shared by strength reduction
/// and the framework's arithmetic-unit generator.
NodeId build_shift_add(Design& d, NodeId x, int64_t constant, int width,
                       bool csd);

/// fold_constants + eliminate_dead iterated to a joint fixed point via
/// PassManager, returning the cleaned design.
Design optimize(const Design& d, PassStats* stats = nullptr);

// ---- structural building block of the TMR hardening transform -------------

/// Bitwise 2-of-3 majority vote of three equal-width values — the TMR voter:
/// any single corrupted operand is outvoted per bit.
NodeId majority3(Design& d, NodeId a, NodeId b, NodeId c);

}  // namespace hlshc::netlist
