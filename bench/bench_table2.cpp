// Regenerates Table II: the full HLS/HC evaluation — both configurations of
// all seven flows, with L, dL, alpha, Q, C_Q, F_Q, frequency, throughput,
// latency, periodicity and the area/DSP/IO block, plus a paper-vs-measured
// digest of the headline ratios.
//
// Usage: bench_table2 [--jobs N] [--verbose] [--wide] [--workload NAME|all]
// (default: all cores; the seven flows evaluate concurrently, results in
// column order at any worker count; --verbose prints the per-pass
// compile-pipeline breakdown per design). With --workload the bench sweeps
// the named workload-registry entry (or every entry) across all of its
// builders instead of the IDCT-only Table II. --wide disables the
// width-narrowing pass — the pre-narrowing pipeline — so the emitted
// table2.csv can be diffed bitwise against one from a build that predates
// the pass (the refactor oracle).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "base/strings.hpp"
#include "base/check.hpp"
#include "par/pool.hpp"
#include "tools/compile.hpp"
#include "tools/flows.hpp"
#include "tools/workloads.hpp"

using hlshc::format_fixed;

namespace {

int run_workload_mode(const std::string& workload, int jobs) {
  hlshc::tools::WorkloadBenchOptions options;
  options.jobs = jobs;
  if (workload != "all") options.workloads = {workload};
  std::printf("=== workload x flow matrix (%s) ===\n", workload.c_str());
  const std::vector<hlshc::tools::WorkloadFlowResult> rows =
      hlshc::tools::run_workload_matrix(options);
  std::puts(hlshc::tools::render_workload_matrix(rows).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = all cores
  bool verbose = false;
  bool wide = false;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = hlshc::par::parse_jobs(argv[++i], "--jobs");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr,
                     "%s\nusage: %s [--jobs N] [--verbose] [--wide] "
                     "[--workload NAME|all]\n",
                     e.what(), argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--wide") == 0) {
      wide = true;
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    }
  }
  if (!workload.empty()) {
    try {
      return run_workload_mode(workload, jobs);
    } catch (const hlshc::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  std::puts("=== Table II: HLS/HC tools evaluation results ===");
  std::puts("(all designs verified bit-exact against the ISO 13818-4 "
            "software model before measurement)\n");
  hlshc::tools::CompileOptions copts;
  copts.narrow = !wide;
  if (wide)
    std::puts("(--wide: width narrowing disabled; this regenerates the "
              "pre-narrowing pipeline bitwise)\n");
  hlshc::tools::Table2 table = hlshc::tools::build_table2(jobs, copts);
  std::puts(hlshc::tools::render_table2(table).c_str());
  std::ofstream("table2.csv") << hlshc::tools::table2_csv(table);
  std::puts("(machine-readable copy written to ./table2.csv)\n");

  if (verbose) {
    std::puts("--- compile pipeline, per-pass breakdown (--verbose) ---");
    for (const auto& col : table.columns) {
      for (const auto* ev : {&col.flow.initial, &col.flow.optimized}) {
        if (ev->pipeline.runs.empty()) continue;
        std::puts(
            hlshc::tools::render_pass_breakdown(ev->name, ev->pipeline)
                .c_str());
      }
    }
  }

  // Headline shape checks against the paper's Table II.
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
