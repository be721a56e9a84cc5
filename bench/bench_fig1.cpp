// Regenerates Fig. 1: the design-space exploration scatter in the
// Performance x Area plane — every circuit synthesized across all seven
// flows (3 Verilog, 2 Chisel, 26 BSV, 19 XLS, 2 MaxJ, 42 Bambu,
// 3 Vivado HLS). Emits the CSV series (for plotting) and a per-family
// summary. Also writes fig1.csv next to the working directory.
//
// The DSE runs once over a par::Pool; the points land in configuration
// order at any worker count (par_test pins serial == parallel).
//
// Usage: bench_fig1 [--jobs N] [--workload NAME|all]
// (default: all cores, the IDCT DSE). With --workload the scatter instead
// covers the named workload-registry entry (or every entry) with one point
// per builder, through the same compile/evaluate path.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/report.hpp"
#include "base/check.hpp"
#include "par/pool.hpp"
#include "tools/flows.hpp"
#include "tools/workloads.hpp"


namespace {

int run_workload_mode(const std::string& workload, int jobs) {
  hlshc::tools::WorkloadBenchOptions options;
  options.jobs = jobs;
  if (workload != "all") options.workloads = {workload};
  std::printf("=== Fig. 1 (workload mode): scatter for %s ===\n",
              workload.c_str());
  std::vector<hlshc::core::ScatterPoint> points;
  for (const auto& r : hlshc::tools::run_workload_matrix(options))
    points.push_back({r.flow, r.workload + "." + r.builder,
                      r.eval.throughput_mops, r.eval.area,
                      static_cast<long>(r.eval.pipeline.nodes_before()) -
                          static_cast<long>(r.eval.pipeline.nodes_after()),
                      r.workload});
  std::puts(hlshc::core::scatter_summary(points).c_str());
  std::puts("--- Pareto frontier (throughput up, area down) ---");
  for (const auto& p : hlshc::core::pareto_front(points))
    std::printf("  %-8s %-28s P=%8.2f MOPS  A=%7ld\n", p.family.c_str(),
                p.config.c_str(), p.throughput_mops, p.area);
  std::puts("\n--- scatter series ---");
  std::fputs(hlshc::core::scatter_csv(points).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = all cores
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = hlshc::par::parse_jobs(argv[++i], "--jobs");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\nusage: %s [--jobs N] [--workload NAME|all]\n",
                     e.what(), argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    }
  }
  if (jobs == 0) jobs = hlshc::par::default_jobs();
  if (!workload.empty()) {
    try {
      return run_workload_mode(workload, jobs);
    } catch (const hlshc::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  std::puts("=== Fig. 1: design space exploration for IDCT ===");
  std::printf("(synthesizing every configuration; this sweeps 200+ circuits "
              "— every flow with narrowing on and off, the scheduler grid, "
              "and the workload cells — over %d jobs)\n\n",
              jobs);

  const auto points = hlshc::tools::full_dse(jobs);
  std::printf("circuits evaluated: %zu\n\n", points.size());
  std::puts(hlshc::core::scatter_summary(points).c_str());

  std::puts("--- Pareto frontier (throughput up, area down) ---");
  for (const auto& p : hlshc::core::pareto_front(points))
    std::printf("  %-8s %-28s P=%8.2f MOPS  A=%7ld\n", p.family.c_str(),
                p.config.c_str(), p.throughput_mops, p.area);
  std::puts("");

  std::string csv = hlshc::core::scatter_csv(points);
  std::ofstream("fig1.csv") << csv;
  std::puts("--- scatter series (also written to ./fig1.csv) ---");
  std::fputs(csv.c_str(), stdout);
  return 0;
}
