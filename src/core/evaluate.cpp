#include "core/evaluate.hpp"

#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "sim/compiled.hpp"

namespace hlshc::core {

DesignEvaluation evaluate_axis_design(const netlist::Design& design,
                                      const workload::WorkloadSpec& spec,
                                      const EvaluateOptions& options) {
  obs::Span span("evaluate.design", "core");
  span.arg("design", design.name());
  span.arg("workload", spec.name);
  DesignEvaluation ev;
  ev.name = design.name();

  // 1+2: simulate, verify, measure. Stimulus, reference model and the
  // accept/reject judgement are the workload's (the same hooks the fault
  // campaigns classify against, so the two paths cannot drift).
  sim::CompiledSimulator sim(design);
  if (options.deadline) sim.set_deadline(options.deadline);
  axis::StreamTestbench tb(sim);
  std::vector<workload::Frame> ins = workload::eval_input_set(
      spec, options.matrices, options.seed, options.realistic_inputs);
  auto outs = tb.run(ins, options.max_cycles);
  // A frame of the wrong length is a functional failure of the design,
  // reported as such rather than thrown.
  ev.functional =
      tb.monitor().clean() && tb.sink().malformed_frames() == 0 &&
      workload::diff_outputs(
          spec, workload::reference_outputs(spec, ins), outs) == 0;
  ev.latency_cycles = tb.timing().latency_cycles;
  ev.periodicity_cycles = tb.timing().periodicity_cycles;

  // 3: synthesize with and without DSP mapping.
  synth::NormalizedSynth ns =
      synth::synthesize_normalized(design, options.synth);
  ev.fmax_mhz = ns.normal.fmax_mhz;
  ev.n_lut = ns.normal.n_lut;
  ev.n_ff = ns.normal.n_ff;
  ev.n_dsp = ns.normal.n_dsp;
  ev.n_io = ns.normal.n_io;
  ev.n_lut_star = ns.nodsp.n_lut;
  ev.n_ff_star = ns.nodsp.n_ff;
  ev.area = ns.area();

  // 4: P = ν_max / T_P.
  ev.throughput_mops =
      ev.periodicity_cycles > 0 ? ev.fmax_mhz / ev.periodicity_cycles : 0.0;
  obs::log_event(obs::EventLevel::kInfo, "core.evaluate",
                 {{"design", design.name()},
                  {"workload", spec.name},
                  {"functional", ev.functional ? "true" : "false"}});
  return ev;
}

DesignEvaluation evaluate_axis_design(const netlist::Design& design,
                                      const EvaluateOptions& options) {
  return evaluate_axis_design(
      design, workload::Registry::instance().get("idct"), options);
}

DesignEvaluation from_maxj(const std::string& name,
                           const maxj::Kernel& kernel,
                           const maxj::SystemEvaluation& ev) {
  DesignEvaluation out;
  out.name = name;
  out.functional = true;  // kernels are verified separately in tests
  out.latency_cycles = ev.latency_ticks;
  out.periodicity_cycles = kernel.ticks_per_op;
  out.fmax_mhz = ev.synth.normal.fmax_mhz;
  out.throughput_mops = ev.throughput_ops / 1e6;
  out.area = ev.synth.area();
  out.n_lut_star = ev.synth.nodsp.n_lut;
  out.n_ff_star = ev.synth.nodsp.n_ff;
  out.n_lut = ev.synth.normal.n_lut;
  out.n_ff = ev.synth.normal.n_ff;
  out.n_dsp = ev.synth.normal.n_dsp;
  out.n_io = ev.synth.normal.n_io;
  return out;
}

}  // namespace hlshc::core
