#include "layers.hpp"

#include <cstdio>
#include <memory>

#include "axis/testbench.hpp"
#include "netlist/exec_plan.hpp"
#include "sim/engine.hpp"
#include "svc/cache.hpp"

namespace perfbench {

namespace hc = hlshc;

hc::netlist::Design Layers::build(const std::string& flow,
                                  const std::function<hc::netlist::Design()>& fn) {
  Ledger::Scope s(ledger, "frontend." + flow);
  return fn();
}

hc::tools::CompiledDesign Layers::compile(const hc::netlist::Design& design,
                                          const hc::tools::CompileOptions& options) {
  hc::tools::CompiledDesign c = [&] {
    Ledger::Scope s(ledger, "netlist.compile");
    return hc::tools::compile(design, options);
  }();
  ++passes_.compiles;
  passes_.iterations += c.stats.iterations;
  passes_.nodes_before += static_cast<int64_t>(c.stats.nodes_before());
  passes_.nodes_after += static_cast<int64_t>(c.stats.nodes_after());
  for (const hc::netlist::PassRun& run : c.stats.runs)
    passes_.ns[run.pass] += run.wall_ns;
  return c;
}

void Layers::plan(const hc::netlist::Design& design) {
  Ledger::Scope s(ledger, "netlist.plan");
  hc::netlist::ExecPlan::for_design(design);
}

hc::synth::NormalizedSynth Layers::synth(const hc::netlist::Design& design) {
  hc::tools::CompileOptions already_compiled;
  already_compiled.optimize = false;
  Ledger::Scope s(ledger, "synth");
  return hc::tools::compile_synth_normalized(design, already_compiled);
}

hc::synth::ScheduleResult Layers::schedule(const hc::netlist::Design& design,
                                           const hc::synth::ScheduleOptions& options) {
  Ledger::Scope s(ledger, "synth.schedule");
  return hc::synth::schedule_pipeline(design, options);
}

bool Layers::simulate(const hc::netlist::Design& design,
                      const hc::workload::WorkloadSpec& spec, int matrices) {
  // The evaluation defaults of core::evaluate_axis_design.
  const hc::core::EvaluateOptions defaults;
  std::unique_ptr<hc::sim::Engine> engine = hc::sim::make_engine(design);
  hc::axis::StreamTestbench tb(*engine);
  const std::vector<hc::workload::Frame> ins = hc::workload::eval_input_set(
      spec, matrices, defaults.seed, defaults.realistic_inputs);
  std::vector<hc::workload::Frame> outs;
  {
    Ledger::Scope s(ledger, "sim.scalar");
    outs = tb.run(ins, defaults.max_cycles);
  }
  sim_cycles_ += tb.timing().total_cycles;
  return tb.monitor().clean() &&
         hc::workload::diff_outputs(
             spec, hc::workload::reference_outputs(spec, ins), outs) == 0;
}

std::string Layers::key(const hc::netlist::Design& design,
                        const hc::tools::CompileOptions& options) {
  Ledger::Scope s(ledger, "svc.key");
  return hc::svc::DesignCache::fingerprint(design, options);
}

hc::fault::CampaignReport Layers::campaign(
    const std::string& kind, const hc::netlist::Design& design,
    const hc::workload::WorkloadSpec& spec,
    const std::vector<hc::fault::FaultSite>& sites,
    const hc::fault::CampaignOptions& options) {
  Ledger::Scope s(ledger, "fault.campaign." + kind);
  return hc::fault::run_campaign(design, spec, sites, options);
}

namespace {

double mean_ms(const Ledger::Row& r) {
  return r.calls > 0 ? static_cast<double>(r.self_ns) / r.calls / 1e6 : 0.0;
}

}  // namespace

void Layers::report(Outcome& out, const std::string& spans_path) const {
  auto& m = out.metrics;
  m["frontend.build_ms"] = mean_ms(ledger.prefix_row("frontend."));
  for (const std::string& f : flow_names()) {
    m["frontend.build_ms." + f] = mean_ms(ledger.row("frontend." + f));
    m["tools.task_ms." + f] = mean_ms(ledger.row("tools.task." + f));
  }
  m["netlist.compile_ms"] = mean_ms(ledger.row("netlist.compile"));
  const double compiles = static_cast<double>(passes_.compiles);
  for (const std::string& p : pass_names()) {
    auto it = passes_.ns.find(p);
    m["netlist.pass_ms." + p] =
        compiles > 0 && it != passes_.ns.end() ? it->second / compiles / 1e6
                                               : 0.0;
  }
  m["netlist.iterations"] = compiles > 0 ? passes_.iterations / compiles : 0.0;
  m["netlist.nodes_kept_frac"] =
      passes_.nodes_before > 0
          ? static_cast<double>(passes_.nodes_after) / passes_.nodes_before
          : 0.0;
  m["netlist.plan_ms"] = mean_ms(ledger.row("netlist.plan"));
  m["synth.ms"] = mean_ms(ledger.row("synth"));
  m["synth.schedule_ms"] = mean_ms(ledger.row("synth.schedule"));
  const Ledger::Row sim = ledger.row("sim.scalar");
  m["sim.scalar_ms"] = mean_ms(sim);
  m["sim.scalar_cycles_per_s"] =
      sim.self_ns > 0 ? static_cast<double>(sim_cycles_) * 1e9 / sim.self_ns
                      : 0.0;
  for (const char* kind : {"seu", "stuck"})
    m[std::string("fault.campaign_ms.") + kind] =
        mean_ms(ledger.row(std::string("fault.campaign.") + kind));
  m["svc.key_ms"] = mean_ms(ledger.row("svc.key"));

  const double wall = static_cast<double>(ledger.wall_ns());
  const double span_cost_ns = Ledger::span_cost_ns();
  const double overhead_ns = ledger.span_count() * span_cost_ns;
  m["trace.residual_frac"] = ledger.residual_ns() / wall;
  m["trace.overhead_frac"] = overhead_ns / wall;

  char buf[160];
  out.lines.push_back("per-layer self time over the traced window (wall " +
                      std::to_string(ledger.wall_ns() / 1000000) + " ms):");
  int64_t total = 0;
  for (const Ledger::Row& r : ledger.rows()) {
    total += r.self_ns;
    std::snprintf(buf, sizeof buf, "  %-24s calls=%-6lld self_ms=%10.1f share=%5.1f%%",
                  r.layer.c_str(), static_cast<long long>(r.calls),
                  r.self_ns / 1e6, 100.0 * r.self_ns / wall);
    out.lines.push_back(buf);
  }
  std::snprintf(buf, sizeof buf,
                "  layers + residual = %.1f ms of %.1f ms wall; tracing "
                "overhead %zu spans x %.0f ns = %.3f ms (%.4f%% of wall)",
                total / 1e6, wall / 1e6, ledger.span_count(), span_cost_ns,
                overhead_ns / 1e6,
                100.0 * overhead_ns / wall);
  out.lines.push_back(buf);
  ledger.write(spans_path);
}

}  // namespace perfbench
