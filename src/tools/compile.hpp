// The single canonical frontend -> synthesis path.
//
// Every flow, bench, fault campaign, and DSE sweep funnels its emitted
// netlist through tools::compile before anything is measured: the default
// PassManager pipeline (fold, mux/bool simplify, copy-prop, CSE, DCE —
// optionally CSD strength reduction) runs to a fixed point, per-pass stats
// are captured for Table II and the pass ablation, and an optional verify mode
// differentially simulates every pass against its input. A CI guard script
// (scripts/check_pipeline_guard.sh) keeps direct synthesize()/optimize()
// calls from creeping back into flows and benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "base/deadline.hpp"
#include "core/evaluate.hpp"
#include "netlist/pass_manager.hpp"
#include "synth/synthesize.hpp"

namespace hlshc::tools {

struct CompileOptions {
  bool optimize = true;          ///< run the pass pipeline at all
  bool strength_reduce = false;  ///< expand const multiplies to CSD trees
  /// Rewrite nodes to their range-proven effective widths (the `narrow`
  /// pass). Default on: every flow executes, campaigns and emits the
  /// trimmed design. false reproduces the pre-narrowing pipeline bit for
  /// bit (the Table II oracle path).
  bool narrow = true;
  /// Differentially simulate after every pass (both engines); a divergence
  /// aborts compilation with an Error naming the pass.
  bool verify = false;
  int verify_cycles = 24;
  uint64_t verify_seed = 2026;
  int max_iterations = 10;       ///< fixed-point bound for the pipeline
  /// Per-request wall budget (synthesis service): checked between passes,
  /// so a compile aborts with DeadlineExceeded instead of overrunning.
  std::shared_ptr<const Deadline> deadline;
};

/// The one canonical text form of `options`: every field except the
/// deadline, in declaration order ("optimize=1 strength_reduce=0 narrow=1
/// ..."). The service's cache keys and the tools.compile span both use it,
/// so a trace shows the same options string a cache entry is keyed on.
std::string canonical_options(const CompileOptions& options);

struct CompiledDesign {
  netlist::Design design;
  netlist::PassStats stats;
};

/// Runs the canonical pipeline over `design` (a no-op copy when
/// options.optimize is false).
CompiledDesign compile(const netlist::Design& design,
                       const CompileOptions& options = {});

/// compile() followed by a single synthesis run.
synth::SynthReport compile_synth(const netlist::Design& design,
                                 const CompileOptions& options = {},
                                 const synth::SynthOptions& synth_options = {});

/// compile() followed by the paper's two normalized runs (default DSP
/// mapping + maxdsp=0). Pass stats are merged into `stats` when given.
synth::NormalizedSynth compile_synth_normalized(
    const netlist::Design& design, const CompileOptions& options = {},
    const synth::SynthOptions& synth_options = {},
    netlist::PassStats* stats = nullptr);

/// compile() followed by the full Section III.C measurement procedure; the
/// pipeline's per-pass breakdown lands in DesignEvaluation::pipeline.
core::DesignEvaluation evaluate_design(
    const netlist::Design& design, const CompileOptions& options = {},
    const core::EvaluateOptions& eval_options = {});

/// Same, but measured against an explicit workload registry entry instead
/// of the default "idct" spec.
core::DesignEvaluation evaluate_design(
    const netlist::Design& design, const workload::WorkloadSpec& spec,
    const CompileOptions& options = {},
    const core::EvaluateOptions& eval_options = {});

/// Human-readable per-pass breakdown table (hlshc_paper table2 --verbose):
/// one row per pass run with iteration, changes, node counts
/// and wall time.
std::string render_pass_breakdown(const std::string& design_name,
                                  const netlist::PassStats& stats);

}  // namespace hlshc::tools
