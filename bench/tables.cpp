// The paper's artifacts: Table I, Table II, the Fig. 1 DSE scatter, and the
// workload x flow matrix that widens Table II and Fig. 1 beyond the IDCT.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/strings.hpp"
#include "core/report.hpp"
#include "paper.hpp"
#include "tools/compile.hpp"
#include "tools/flows.hpp"
#include "tools/workloads.hpp"

namespace hlshc::paper {

namespace {

void print_pareto(const std::vector<core::ScatterPoint>& points) {
  std::puts("--- Pareto frontier (throughput up, area down) ---");
  for (const auto& p : core::pareto_front(points))
    std::printf("  %-8s %-28s P=%8.2f MOPS  A=%7ld\n", p.family.c_str(),
                p.config.c_str(), p.throughput_mops, p.area);
}

/// Per workload: the minimum-area, maximum-throughput and best-quality
/// points with their winning configs, and the Pareto front's size.
void print_fronts(const std::vector<core::ScatterPoint>& points) {
  std::map<std::string, std::vector<core::ScatterPoint>> by_workload;
  for (const auto& p : points) by_workload[p.workload].push_back(p);
  std::puts("--- per-workload A/P/Q fronts ---");
  for (const auto& [workload, pts] : by_workload) {
    const core::ScatterPoint* min_a = &pts.front();
    const core::ScatterPoint* max_p = &pts.front();
    const core::ScatterPoint* best_q = &pts.front();
    for (const auto& p : pts) {
      if (p.area < min_a->area) min_a = &p;
      if (p.throughput_mops > max_p->throughput_mops) max_p = &p;
      if (p.quality() > best_q->quality()) best_q = &p;
    }
    std::printf("%-8s %3zu configs, pareto %2zu\n", workload.c_str(),
                pts.size(), core::pareto_front(pts).size());
    std::printf("  A: %7ld        (%s %s)\n", min_a->area,
                min_a->family.c_str(), min_a->config.c_str());
    std::printf("  P: %10.3f MOPS (%s %s)\n", max_p->throughput_mops,
                max_p->family.c_str(), max_p->config.c_str());
    std::printf("  Q: %10.1f      (%s %s)\n", best_q->quality(),
                best_q->family.c_str(), best_q->config.c_str());
  }
}

}  // namespace

int table1(const Args&) {
  std::puts("=== Table I: languages and tools under evaluation ===\n");
  std::puts(tools::render_table1().c_str());
  std::puts("(paper: Verilog/Vivado LS/PR commercial; Chisel and BSC open-"
            "source HC; XLS open-source HLS;\n MaxCompiler and Vivado HLS "
            "commercial HLS; Bambu open-source HLS)");
  return 0;
}

// Both configurations of all seven flows, with L, dL, alpha, Q, C_Q, F_Q,
// frequency, throughput, latency, periodicity and the area/DSP/IO block,
// plus a paper-vs-measured digest of the headline ratios. Writes table2.csv.
// --wide disables the width-narrowing pass, regenerating the pre-narrowing
// pipeline bitwise; --verbose adds each design's per-pass breakdown, whose
// pass times make that part of the output vary from run to run.
int table2(const Args& args) {
  std::puts("=== Table II: HLS/HC tools evaluation results ===");
  std::puts("(all designs verified bit-exact against the ISO 13818-4 "
            "software model before measurement)\n");
  tools::CompileOptions copts;
  copts.narrow = !args.wide;
  if (args.wide)
    std::puts("(--wide: width narrowing disabled; this regenerates the "
              "pre-narrowing pipeline bitwise)\n");
  tools::Table2 table = tools::build_table2(args.jobs, copts);
  std::puts(tools::render_table2(table).c_str());
  std::ofstream("table2.csv") << tools::table2_csv(table);
  std::puts("(machine-readable copy written to ./table2.csv)\n");

  if (args.verbose) {
    std::puts("--- compile pipeline, per-pass breakdown (--verbose) ---");
    for (const auto& col : table.columns)
      for (const auto* ev : {&col.flow.initial, &col.flow.optimized})
        if (!ev->pipeline.runs.empty())
          std::puts(
              tools::render_pass_breakdown(ev->name, ev->pipeline).c_str());
  }

  const auto& v = table.columns[0];
  const auto& chis = table.columns[1];
  const auto& bsv = table.columns[2];
  const auto& xls = table.columns[3];
  const auto& bambu = table.columns[5];
  const auto& vhls = table.columns[6];
  std::puts("--- paper vs measured (shape) ---");
  std::printf("Verilog opt/init quality gain: paper 9.4x, measured %sx\n",
              format_fixed(v.quality_opt / v.quality_initial, 1).c_str());
  std::printf("Chisel controllability: paper 90.1%%, measured %s%%\n",
              format_fixed(chis.controllability, 1).c_str());
  std::printf("BSV controllability: paper 74.8%%, measured %s%%  "
              "(opt periodicity: paper 9, measured %s)\n",
              format_fixed(bsv.controllability, 1).c_str(),
              format_fixed(bsv.flow.optimized.periodicity_cycles, 0).c_str());
  std::printf("XLS controllability: paper 38.3%%, measured %s%%\n",
              format_fixed(xls.controllability, 1).c_str());
  std::printf("Bambu controllability: paper 6.1%%, measured %s%% (worst "
              "of the study in both)\n",
              format_fixed(bambu.controllability, 1).c_str());
  std::printf("Vivado HLS controllability: paper 89.7%%, measured %s%%\n",
              format_fixed(vhls.controllability, 1).c_str());
  std::printf("Vivado HLS pragma speedup: paper ~42x periodicity (340->8), "
              "measured %sx (%s->%s)\n",
              format_fixed(vhls.flow.initial.periodicity_cycles /
                               vhls.flow.optimized.periodicity_cycles,
                           0)
                  .c_str(),
              format_fixed(vhls.flow.initial.periodicity_cycles, 0).c_str(),
              format_fixed(vhls.flow.optimized.periodicity_cycles, 0).c_str());
  return 0;
}

// The design-space exploration in the Performance x Area plane: tools::
// full_dse sweeps every flow's configuration grid with width narrowing on
// and off (the "+wide" points), the scheduler grid, and every non-IDCT
// workload-registry cell, over one par::SweepRunner pool; the points land
// in configuration order at any worker count. Prints the per-family
// summary, the Pareto front, the per-workload A/P/Q fronts and the scatter
// series, and writes the series to fig1.csv. perfbench pins every point
// (perfbench/expected/dse.tsv).
int fig1(const Args& args) {
  std::puts("=== Fig. 1: design space exploration for IDCT ===");
  std::fprintf(stderr,
               "(synthesizing every configuration; this sweeps 200+ circuits "
               "— every flow with narrowing on and off, the scheduler grid, "
               "and the workload cells — over %d jobs)\n",
               args.jobs);
  std::puts("");

  const auto points = tools::full_dse(args.jobs);
  HLSHC_CHECK(points.size() >= 200,
              "full_dse produced only " << points.size()
                                        << " configurations; the DSE "
                                           "contract is 200+");
  std::printf("circuits evaluated: %zu\n\n", points.size());
  std::puts(core::scatter_summary(points).c_str());
  print_pareto(points);
  std::puts("");
  print_fronts(points);
  std::puts("");

  std::string csv = core::scatter_csv(points);
  std::ofstream("fig1.csv") << csv;
  std::puts("--- scatter series (also written to ./fig1.csv) ---");
  std::fputs(csv.c_str(), stdout);
  return 0;
}

// The workload x flow matrix: the named workload-registry entry (or every
// entry) swept across all of its builders through the same compile and
// evaluate path as Table II, each cell with its SEU campaign, then the
// same cells as a Performance x Area scatter.
int workloads(const Args& args) {
  tools::WorkloadBenchOptions options;
  options.jobs = args.jobs;
  if (args.workload != "all") options.workloads = {args.workload};
  const std::vector<tools::WorkloadFlowResult> rows =
      tools::run_workload_matrix(options);
  std::printf("=== workload x flow matrix (%s) ===\n", args.workload.c_str());
  std::puts(tools::render_workload_matrix(rows).c_str());

  std::vector<core::ScatterPoint> points;
  for (const auto& r : rows)
    points.push_back({r.flow, r.workload + "." + r.builder,
                      r.eval.throughput_mops, r.eval.area,
                      static_cast<long>(r.eval.pipeline.nodes_before()) -
                          static_cast<long>(r.eval.pipeline.nodes_after()),
                      r.workload});
  std::printf("=== workload scatter (%s) ===\n", args.workload.c_str());
  std::puts(core::scatter_summary(points).c_str());
  print_pareto(points);
  std::puts("\n--- scatter series ---");
  std::fputs(core::scatter_csv(points).c_str(), stdout);
  return 0;
}

}  // namespace hlshc::paper
