#include "tools/compile.hpp"

#include <utility>

#include "base/strings.hpp"
#include "core/report.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "sim/verify.hpp"

namespace hlshc::tools {

std::string canonical_options(const CompileOptions& options) {
  // Adding a field breaks this binding until the field gets its place in
  // the serialization (or, like the deadline, a reason to stay out of it).
  const auto& [optimize, strength_reduce, narrow, verify, verify_cycles,
               verify_seed, max_iterations, deadline] = options;
  (void)deadline;  // a wall budget never changes the compiled design
  return "optimize=" + std::to_string(optimize) +
         " strength_reduce=" + std::to_string(strength_reduce) +
         " narrow=" + std::to_string(narrow) +
         " verify=" + std::to_string(verify) +
         " verify_cycles=" + std::to_string(verify_cycles) +
         " verify_seed=" + std::to_string(verify_seed) +
         " max_iterations=" + std::to_string(max_iterations);
}

CompiledDesign compile(const netlist::Design& design,
                       const CompileOptions& options) {
  CompiledDesign out{design, {}};
  if (!options.optimize) return out;

  obs::Span span("tools.compile", "tools");
  span.arg("design", design.name()).arg("options", canonical_options(options));
  netlist::PipelineOptions po;
  po.max_iterations = options.max_iterations;
  po.deadline = options.deadline;
  if (options.verify) {
    sim::VerifyOptions vo;
    vo.cycles = options.verify_cycles;
    vo.seed = options.verify_seed;
    po.verifier = sim::make_pass_verifier(vo);
  }
  netlist::PassManager pipeline =
      netlist::default_pipeline(options.strength_reduce, options.narrow);
  out.design = pipeline.run(design, &out.stats, po);
  span.arg("iterations", static_cast<int64_t>(out.stats.iterations))
      .arg("nodes_before", static_cast<int64_t>(out.stats.nodes_before()))
      .arg("nodes_after", static_cast<int64_t>(out.stats.nodes_after()));
  obs::log_event(
      obs::EventLevel::kInfo, "tools.compile",
      {{"design", design.name()},
       {"iterations", std::to_string(out.stats.iterations)},
       {"nodes_before", std::to_string(out.stats.nodes_before())},
       {"nodes_after", std::to_string(out.stats.nodes_after())}});
  return out;
}

synth::SynthReport compile_synth(const netlist::Design& design,
                                 const CompileOptions& options,
                                 const synth::SynthOptions& synth_options) {
  CompiledDesign c = compile(design, options);
  return synth::synthesize(c.design, synth_options);
}

synth::NormalizedSynth compile_synth_normalized(
    const netlist::Design& design, const CompileOptions& options,
    const synth::SynthOptions& synth_options, netlist::PassStats* stats) {
  CompiledDesign c = compile(design, options);
  if (stats) stats->merge(c.stats);
  return synth::synthesize_normalized(c.design, synth_options);
}

core::DesignEvaluation evaluate_design(const netlist::Design& design,
                                       const CompileOptions& options,
                                       const core::EvaluateOptions& eval_options) {
  CompiledDesign c = compile(design, options);
  core::DesignEvaluation ev = core::evaluate_axis_design(c.design, eval_options);
  ev.pipeline = std::move(c.stats);
  return ev;
}

core::DesignEvaluation evaluate_design(const netlist::Design& design,
                                       const workload::WorkloadSpec& spec,
                                       const CompileOptions& options,
                                       const core::EvaluateOptions& eval_options) {
  CompiledDesign c = compile(design, options);
  core::DesignEvaluation ev =
      core::evaluate_axis_design(c.design, spec, eval_options);
  ev.pipeline = std::move(c.stats);
  return ev;
}

std::string render_pass_breakdown(const std::string& design_name,
                                  const netlist::PassStats& stats) {
  core::Table t({"design", "iter", "pass", "changes", "nodes before",
                 "nodes after", "wall us"});
  for (const netlist::PassRun& run : stats.runs)
    t.add_row({design_name, std::to_string(run.iteration), run.pass,
               std::to_string(run.changes), std::to_string(run.nodes_before),
               std::to_string(run.nodes_after),
               format_fixed(static_cast<double>(run.wall_ns) / 1e3, 1)});
  return t.render();
}

}  // namespace hlshc::tools
