// Hardening transform: TMR.
//
// tmr() operates on a finished netlist design, so any flow's output
// (Verilog-style RTL, Chisel eDSL, BSV schedule, XLS pipeline, HLS result)
// can be hardened after the fact and re-costed with synth::cost_model — the
// hardened A, P and Q land next to the paper's Table II numbers. It
// triplicates the whole kernel via netlist::instantiate and majority-votes
// every output port bitwise, masking any single fault confined to one copy.
// Port-compatible with the original design; the optional detector adds a
// sticky 1-bit "tmr_err" output that latches any copy disagreement.
#pragma once

#include "netlist/ir.hpp"

namespace hlshc::fault {

struct TmrOptions {
  /// Add the sticky "tmr_err" disagreement output. Off by default: a plain
  /// voter masks silently, which is what the masking guarantees assert.
  bool with_detector = false;
};

/// Triple-modular redundancy around `kernel`. Throws if the kernel has no
/// outputs to vote.
netlist::Design tmr(const netlist::Design& kernel,
                    const TmrOptions& options = {});

}  // namespace hlshc::fault
