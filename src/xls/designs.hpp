// The DSLX/XLS design family of the paper.
//
// The kernel is the full 8x8 2-D IDCT as one dataflow function (adapted
// from the IDCT example shipped with google/xls, with the element widths
// changed to the paper's 12-bit-in/9-bit-out interface). XLS compiles it
// either combinationally or as an N-stage pipeline; the paper sweeps one
// knob — the number of pipeline stages — over 19 configurations (comb +
// 1..18 stages) and finds the best quality at 8 requested stages.
//
// The AXI-Stream adapter is hand-crafted (XLS does not generate it): it
// collects 8 rows, launches one matrix per free slot into the kernel, and
// serializes results from ping-pong capture banks. A valid-token shift
// register tracks wavefronts through the pipeline and a two-slot credit
// counter makes the adapter safe under output back-pressure while
// sustaining the paper's periodicity of 8.
#pragma once

#include "netlist/ir.hpp"
#include "xls/pipeline.hpp"

namespace hlshc::xls {

struct XlsOptions {
  /// 0 = combinational codegen (the paper's initial design);
  /// >= 1 = requested pipeline stages (8 is the paper's optimum; the
  /// paper's sweep stops at 18, the scheduler accepts up to
  /// synth::kMaxScheduleStages). Validated by build_xls_design — out of
  /// range throws with the knob's name.
  int pipeline_stages = 0;
  /// Stage-assignment objective (delay balance reproduces the paper).
  synth::ScheduleObjective objective = synth::ScheduleObjective::kDelayBalance;
  /// Retime boundary registers across sign/zero extensions.
  bool retime_boundaries = false;
};

/// The pure dataflow 2-D IDCT function: inputs x0..x63 (12 bit),
/// outputs y0..y63 (9 bit).
netlist::Design build_idct_kernel();

struct XlsDesign {
  netlist::Design design;
  int kernel_latency = 0;  ///< register layers in the generated kernel
  PipelineResult pipeline;  ///< codegen stats (requested/merged stages...)
};

XlsDesign build_xls_design(const XlsOptions& options);

}  // namespace hlshc::xls
