#include "tools/workloads.hpp"

#include <utility>

#include "base/check.hpp"
#include "base/strings.hpp"
#include "core/report.hpp"
#include "fault/model.hpp"
#include "obs/trace.hpp"
#include "par/sweep.hpp"

namespace hlshc::tools {
namespace {

struct Cell {
  const workload::WorkloadSpec* spec = nullptr;
  const workload::BuilderInfo* builder = nullptr;
};

std::string outcome_mix(const fault::CampaignCounts& c) {
  return std::to_string(c.masked) + "/" + std::to_string(c.sdc) + "/" +
         std::to_string(c.detected) + "/" + std::to_string(c.hang);
}

}  // namespace

std::vector<WorkloadFlowResult> run_workload_matrix(
    const WorkloadBenchOptions& options) {
  const workload::Registry& reg = workload::Registry::instance();
  std::vector<std::string> names =
      options.workloads.empty() ? reg.names() : options.workloads;

  std::vector<Cell> cells;
  for (const std::string& name : names) {
    const workload::WorkloadSpec& spec = reg.get(name);  // throws on unknown
    for (const workload::BuilderInfo& b : spec.builders) {
      if (b.slow && !options.include_slow) continue;
      cells.push_back({&spec, &b});
    }
  }
  HLSHC_CHECK(!cells.empty(), "workload matrix selected no builders");

  obs::Span span("tools.workload_matrix", "tools");
  span.arg("workloads", static_cast<int64_t>(names.size()))
      .arg("cells", static_cast<int64_t>(cells.size()));

  par::SweepRunner runner(options.jobs);
  return runner.map<WorkloadFlowResult>(
      "workload_matrix", static_cast<int64_t>(cells.size()),
      [&](int64_t i) {
        const Cell& cell = cells[static_cast<size_t>(i)];
        WorkloadFlowResult r;
        r.workload = cell.spec->name;
        r.builder = cell.builder->name;
        r.flow = cell.builder->flow;
        r.variant = cell.builder->variant;

        netlist::Design d = cell.builder->build();
        CompiledDesign cd = compile(d, options.compile);

        core::EvaluateOptions eo;
        eo.matrices = options.matrices;
        r.eval = core::evaluate_axis_design(cd.design, *cell.spec, eo);
        r.eval.pipeline = std::move(cd.stats);

        std::vector<fault::FaultSite> sites = fault::sample_seu_sites(
            cd.design, options.campaign_sites, options.max_inject_cycle,
            options.campaign_seed);
        fault::CampaignOptions co;
        co.matrices = options.campaign_matrices;
        co.progress_every = 0;  // the sweep already owns the terminal
        r.campaign = fault::run_campaign(cd.design, *cell.spec, sites, co);
        r.vulnerability = r.campaign.counts.vulnerability();
        return r;
      });
}

std::string render_workload_matrix(
    const std::vector<WorkloadFlowResult>& rows) {
  core::Table t({"workload", "builder", "flow", "func", "T_P", "fmax",
                 "P MOPS", "A", "Q", "VF", "m/s/d/h"});
  for (const WorkloadFlowResult& r : rows)
    t.add_row({r.workload, r.builder, r.flow, r.eval.functional ? "ok" : "FAIL",
               format_fixed(r.eval.periodicity_cycles, 1),
               format_fixed(r.eval.fmax_mhz, 1),
               format_fixed(r.eval.throughput_mops, 3),
               std::to_string(r.eval.area),
               format_fixed(r.eval.quality() * 1e3, 3),
               format_fixed(r.vulnerability, 3),
               outcome_mix(r.campaign.counts)});
  return t.render();
}

}  // namespace hlshc::tools
