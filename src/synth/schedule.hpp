// Flow-neutral feed-forward pipeline scheduler.
//
// Extracted from the XLS flow's pipeliner (xls/pipeline.hpp is now a thin
// wrapper): any flow with a pure dataflow kernel — hand-written RTL rows,
// Chisel's butterfly network, the XLS IDCT function — can be pipelined by
// the same stage-assignment machinery, which is how the DSE sweeps stage
// counts across every flow instead of only XLS.
//
//   * stage(node) = floor(arrival_end(node) * N / critical_path), clamped
//     monotone over operands — the greedy ASAP delay balancing XLS's
//     scheduler defaults to (ScheduleObjective::kDelayBalance);
//   * kRegisterMin keeps that schedule feasible but sinks nodes toward
//     their consumers whenever their operands are cheaper to register than
//     the node's own output — fewer pipeline flops, possibly a longer
//     critical stage (the classic area/fmax scheduling trade);
//   * retime_boundaries registers the narrow source of a sign/zero
//     extension instead of the extended value — boundary registers shrink
//     to the bits that carry information (pairs well with the `narrow`
//     pass, which leaves SExt adapters on exactly such seams);
//   * empty stages merge away, and outputs register at the final boundary,
//     so latency equals the number of surviving stages.
//
// The returned design has the same port names as the input function.
#pragma once

#include <string>
#include <string_view>

#include "netlist/ir.hpp"
#include "synth/cost_model.hpp"

namespace hlshc::synth {

enum class ScheduleObjective {
  kDelayBalance,  ///< balance per-stage delay (the XLS default)
  kRegisterMin,   ///< minimize pipeline register bits within the schedule
};

/// Wire names for the objective knob ("balance" / "regmin").
const char* schedule_objective_name(ScheduleObjective objective);

/// Most stages a request may ask for. The paper sweeps 1..18; the scheduler
/// itself is happy far beyond that, but a bound keeps mistyped requests
/// ("180") from silently building absurd register chains.
inline constexpr int kMaxScheduleStages = 64;

/// Validator for the objective knob: "balance" or "regmin" (throws
/// hlshc::Error naming `what` otherwise).
ScheduleObjective parse_objective(std::string_view text,
                                  std::string_view what);

struct ScheduleOptions {
  int stages = 0;  ///< requested stages; 0 = combinational passthrough
  ScheduleObjective objective = ScheduleObjective::kDelayBalance;
  /// Push boundary registers across SExt/ZExt onto their narrower source.
  bool retime_boundaries = false;
  /// Delay model used for arrival times (no I/O pads: internal kernel).
  SynthOptions synth;
};

struct ScheduleResult {
  netlist::Design design;
  int latency = 0;          ///< register layers from input to output
  int requested_stages = 0;
  int merged_stages = 0;    ///< empty stages removed
  int pipeline_regs = 0;    ///< total pipeline register bits inserted
};

/// Pipelines a pure combinational function. options.stages == 0 returns a
/// copy of the function unchanged (combinational codegen). Throws if the
/// function contains registers or memories.
ScheduleResult schedule_pipeline(const netlist::Design& function,
                                 const ScheduleOptions& options);

}  // namespace hlshc::synth
