// The paper's measurement procedure (Section III.C) for one design.
//
// Every AXI-Stream design goes through the same pipeline:
//   1. cycle-accurate simulation against the ISO 13818-4 software model
//      (functional verification is a precondition for reporting numbers);
//   2. measured latency T_L and periodicity T_P from the stream testbench;
//   3. synthesis twice — default DSP mapping for ν_max/N_LUT/N_FF/N_DSP,
//      and maxdsp=0 for the normalized area A = N*_LUT + N*_FF;
//   4. P = ν_max / T_P and Q = P / A.
//
// MaxJ designs (PCIe systems, no AXI wrapper) are evaluated through
// maxj::evaluate_system and converted to the same record.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "base/deadline.hpp"
#include "maxj/system.hpp"
#include "netlist/ir.hpp"
#include "netlist/passes.hpp"
#include "synth/synthesize.hpp"
#include "workload/workload.hpp"

namespace hlshc::core {

struct DesignEvaluation {
  std::string name;
  bool functional = false;       ///< bit-exact against the software model
  int latency_cycles = 0;        ///< T_L, measured (or modelled for MaxJ)
  double periodicity_cycles = 0; ///< T_P, measured
  double fmax_mhz = 0.0;
  double throughput_mops = 0.0;  ///< P in MOPS
  long area = 0;                 ///< A = N*_LUT + N*_FF
  long n_lut_star = 0, n_ff_star = 0;  ///< maxdsp=0 mapping
  long n_lut = 0, n_ff = 0, n_dsp = 0, n_io = 0;  ///< default mapping
  /// Per-pass breakdown of the tools::compile pipeline that produced the
  /// measured design (empty when the design was evaluated unoptimized).
  netlist::PassStats pipeline;

  double quality() const {
    return area > 0 ? throughput_mops * 1e6 / static_cast<double>(area) : 0;
  }
};

struct EvaluateOptions {
  int matrices = 8;          ///< workload size for timing measurement
  bool realistic_inputs = true;  ///< fDCT-derived coefficients (see tests)
  uint64_t seed = 2026;
  uint64_t max_cycles = 500000;
  synth::SynthOptions synth;
  /// Per-request wall budget (synthesis service): armed on the measurement
  /// engine so a runaway simulation throws DeadlineExceeded mid-run.
  std::shared_ptr<const Deadline> deadline;
};

/// Full procedure for a canonical-port AXI-Stream design implementing
/// `spec`: stimulus, reference model and quality judge all come from the
/// workload registry entry.
DesignEvaluation evaluate_axis_design(const netlist::Design& design,
                                      const workload::WorkloadSpec& spec,
                                      const EvaluateOptions& options = {});

/// Convenience overload against the registered "idct" workload (the
/// paper's benchmark); bit-identical to the historical hardwired path.
DesignEvaluation evaluate_axis_design(const netlist::Design& design,
                                      const EvaluateOptions& options = {});

/// Conversion for MaxJ system evaluations (throughput from the PCIe model,
/// periodicity = kernel ticks per op).
DesignEvaluation from_maxj(const std::string& name,
                           const maxj::Kernel& kernel,
                           const maxj::SystemEvaluation& ev);

}  // namespace hlshc::core
