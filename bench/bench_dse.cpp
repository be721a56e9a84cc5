// Regenerates the scheduler-aware design-space exploration: tools::full_dse
// sweeps every flow's configuration grid with width narrowing on AND off
// (the "+wide" variants), the pipelined kernels for the RTL/Chisel flows,
// the XLS stage/objective/retiming grid, and every non-IDCT
// workload-registry cell — 200+ configurations over one par::SweepRunner
// pool.
//
// Prints the per-workload A/P/Q fronts — minimum area, maximum throughput,
// and best quality with the winning config for each — and writes dse.csv
// (the full scatter, workload column included). perfbench pins all 254
// points (perfbench/expected/dse.tsv).
//
// Usage: bench_dse [--jobs N]   (default: all cores)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/strings.hpp"
#include "core/report.hpp"
#include "par/pool.hpp"
#include "tools/flows.hpp"

using hlshc::format_fixed;

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = all cores
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = hlshc::par::parse_jobs(argv[++i], "--jobs");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\nusage: %s [--jobs N]\n", e.what(), argv[0]);
        return 1;
      }
    }
  }
  if (jobs == 0) jobs = hlshc::par::default_jobs();

  std::puts("=== scheduler-aware DSE: narrowing x scheduling x workload ===");
  std::printf("(sweeping every flow with narrowing on/off, the pipeline "
              "scheduler grid, and the workload cells over %d jobs)\n\n",
              jobs);

  const std::vector<hlshc::core::ScatterPoint> points =
      hlshc::tools::full_dse(jobs);
  HLSHC_CHECK(points.size() >= 200,
              "full_dse produced only " << points.size()
                                        << " configurations; the DSE "
                                           "contract is 200+");
  std::printf("configurations evaluated: %zu\n\n", points.size());

  std::map<std::string, std::vector<hlshc::core::ScatterPoint>> by_workload;
  for (const auto& p : points) by_workload[p.workload].push_back(p);

  std::puts("--- per-workload A/P/Q fronts ---");
  for (const auto& [workload, pts] : by_workload) {
    const hlshc::core::ScatterPoint* min_a = &pts.front();
    const hlshc::core::ScatterPoint* max_p = &pts.front();
    const hlshc::core::ScatterPoint* best_q = &pts.front();
    for (const auto& p : pts) {
      if (p.area < min_a->area) min_a = &p;
      if (p.throughput_mops > max_p->throughput_mops) max_p = &p;
      if (p.quality() > best_q->quality()) best_q = &p;
    }
    const size_t front = hlshc::core::pareto_front(pts).size();
    std::printf("%-8s %3zu configs, pareto %2zu\n", workload.c_str(),
                pts.size(), front);
    std::printf("  A: %7ld        (%s %s)\n", min_a->area,
                min_a->family.c_str(), min_a->config.c_str());
    std::printf("  P: %10.3f MOPS (%s %s)\n", max_p->throughput_mops,
                max_p->family.c_str(), max_p->config.c_str());
    std::printf("  Q: %10.1f      (%s %s)\n", best_q->quality(),
                best_q->family.c_str(), best_q->config.c_str());
  }

  std::string csv = hlshc::core::scatter_csv(points);
  std::ofstream("dse.csv") << csv;
  std::puts("\n(scatter written to ./dse.csv)");
  return 0;
}
