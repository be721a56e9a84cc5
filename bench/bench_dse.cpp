// Regenerates the scheduler-aware design-space exploration: tools::full_dse
// sweeps every flow's configuration grid with width narrowing on AND off
// (the "+wide" variants), the pipelined kernels for the RTL/Chisel flows,
// the XLS stage/objective/retiming grid, and every non-IDCT
// workload-registry cell — 200+ configurations over one par::SweepRunner
// pool.
//
// Emits dse.csv (the full scatter, workload column included) and
// BENCH_dse.json (obs::RunReport) with the per-workload A/P/Q fronts:
// minimum area, maximum throughput, and best quality with the winning
// config for each. perfbench pins all 254 points (perfbench/expected/dse.tsv).
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
#include "obs/report.hpp"
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

  hlshc::obs::RunReport report("bench_dse");
  report.params().set("jobs", hlshc::obs::Json::number(jobs));
  report.results().set(
      "configs", hlshc::obs::Json::number(static_cast<int64_t>(points.size())));
  hlshc::obs::Json workloads = hlshc::obs::Json::array();

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

    hlshc::obs::Json row = hlshc::obs::Json::object();
    row.set("workload", hlshc::obs::Json::string(workload))
        .set("configs",
             hlshc::obs::Json::number(static_cast<int64_t>(pts.size())))
        .set("pareto_size",
             hlshc::obs::Json::number(static_cast<int64_t>(front)))
        .set("min_area",
             hlshc::obs::Json::number(static_cast<int64_t>(min_a->area)))
        .set("min_area_config",
             hlshc::obs::Json::string(min_a->family + " " + min_a->config))
        .set("max_mops", hlshc::obs::Json::number(max_p->throughput_mops))
        .set("max_mops_config",
             hlshc::obs::Json::string(max_p->family + " " + max_p->config))
        .set("best_quality", hlshc::obs::Json::number(best_q->quality()))
        .set("best_quality_config",
             hlshc::obs::Json::string(best_q->family + " " + best_q->config));
    workloads.push(std::move(row));
  }
  report.results().set("workloads", std::move(workloads));
  report.write_file("BENCH_dse.json");

  std::string csv = hlshc::core::scatter_csv(points);
  std::ofstream("dse.csv") << csv;
  std::puts("\n(scatter written to ./dse.csv, run report to "
            "./BENCH_dse.json)");
  return 0;
}
