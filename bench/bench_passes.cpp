// Compile-pipeline ablation: what the netlist pass pipeline buys, per flow.
//
// Twelve representative design points (both configurations of Verilog,
// Chisel, BSV, XLS, Bambu and Vivado HLS) are each evaluated twice through
// the canonical tools::compile entry — once with the pass pipeline disabled
// and once with the default pipeline (fold, strength-reduce, mux-simplify,
// copy-prop, CSE, DCE to fixed point) — and the node/LUT/FF/area/quality
// deltas are reported per point. The pipeline is behavior-preserving by
// construction (see sim::make_pass_verifier), so only A and Q may move.
//
// The 24 evaluations run once over a par::SweepRunner; results land in
// point order at any worker count.
//
// Usage: bench_passes [--jobs N]   (default: all cores)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "bsv/designs.hpp"
#include "chisel/designs.hpp"
#include "core/evaluate.hpp"
#include "hls/tool.hpp"
#include "base/check.hpp"
#include "par/pool.hpp"
#include "par/sweep.hpp"
#include "rtl/designs.hpp"
#include "tools/compile.hpp"
#include "xls/designs.hpp"

using hlshc::format_fixed;

namespace {

struct DesignPoint {
  std::string name;
  hlshc::netlist::Design design;
};

std::vector<DesignPoint> design_points() {
  using namespace hlshc;
  std::vector<DesignPoint> pts;
  pts.push_back({"verilog/initial", rtl::build_verilog_initial()});
  pts.push_back({"verilog/opt2", rtl::build_verilog_opt2()});
  pts.push_back({"chisel/initial", chisel::build_chisel_initial()});
  pts.push_back({"chisel/opt", chisel::build_chisel_opt()});
  pts.push_back({"bsv/initial", bsv::build_bsv_initial()});
  pts.push_back({"bsv/opt", bsv::build_bsv_opt()});
  pts.push_back({"xls/comb", xls::build_xls_design({0}).design});
  pts.push_back({"xls/s8", xls::build_xls_design({8}).design});
  const std::string src = hls::idct_source();
  pts.push_back({"bambu/default", hls::compile_bambu(src, {}).design});
  hls::BambuOptions perf;
  perf.preset = hls::BambuPreset::kPerformanceMp;
  perf.speculative_sdc = true;
  pts.push_back({"bambu/perf-mp+sdc", hls::compile_bambu(src, perf).design});
  pts.push_back({"vhls/pushbutton", hls::compile_vhls(src, {}).design});
  hls::VhlsOptions pragmas;
  pragmas.pragmas = true;
  pts.push_back({"vhls/pragmas", hls::compile_vhls(src, pragmas).design});
  return pts;
}

struct PointResult {
  std::string name;
  size_t nodes_off = 0, nodes_on = 0;
  hlshc::core::DesignEvaluation off, on;
  hlshc::netlist::PassStats stats;  // the pipeline-on breakdown
};

std::vector<PointResult> run_sweep(const std::vector<DesignPoint>& pts,
                                   int jobs) {
  using namespace hlshc;
  par::SweepRunner runner(jobs);
  core::EvaluateOptions eo;
  eo.matrices = 3;  // ablation compares synth-level numbers, not timing noise
  // 2*i   = point i with the pipeline off,
  // 2*i+1 = point i with the default pipeline.
  std::vector<core::DesignEvaluation> evs =
      runner.map<core::DesignEvaluation>(
          "passes_ablation", static_cast<int64_t>(2 * pts.size()),
          [&pts, &eo](int64_t k) {
            const DesignPoint& p = pts[static_cast<size_t>(k / 2)];
            tools::CompileOptions co;
            co.optimize = (k % 2) == 1;
            return tools::evaluate_design(p.design, co, eo);
          });
  std::vector<PointResult> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    PointResult r;
    r.name = pts[i].name;
    r.nodes_off = pts[i].design.node_count();
    r.off = evs[2 * i];
    r.on = evs[2 * i + 1];
    r.stats = r.on.pipeline;
    r.nodes_on = r.stats.runs.empty() ? r.nodes_off
                                      : static_cast<size_t>(r.stats.nodes_after());
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = all cores
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = hlshc::par::parse_jobs(argv[++i], "--jobs");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\nusage: %s [--jobs N]\n", e.what(), argv[0]);
        return 1;
      }
    }
  if (jobs == 0) jobs = hlshc::par::default_jobs();

  std::puts("=== Compile-pipeline ablation: pipeline off vs on ===\n");
  std::vector<DesignPoint> pts = design_points();

  const std::vector<PointResult> results = run_sweep(pts, jobs);

  std::puts("design                  nodes           LUT*            FF*   "
            "        area           Q (P/A)");
  std::puts("                     off     on     off     on     off     on "
            "    off     on     off     on");
  for (const PointResult& r : results) {
    std::printf("%-17s %6zu %6zu  %6ld %6ld  %6ld %6ld  %6ld %6ld  %6s %6s\n",
                r.name.c_str(), r.nodes_off, r.nodes_on, r.off.n_lut_star,
                r.on.n_lut_star, r.off.n_ff_star, r.on.n_ff_star, r.off.area,
                r.on.area, format_fixed(r.off.quality(), 0).c_str(),
                format_fixed(r.on.quality(), 0).c_str());
    if (r.off.functional != r.on.functional) {
      std::fprintf(stderr, "FATAL: pipeline changed functional verdict for "
                           "%s\n", r.name.c_str());
      return 1;
    }
  }

  // Per-pass rewrite counts across every pipeline-on compile.
  std::map<std::string, int64_t> changes_by_pass;
  for (const PointResult& r : results)
    for (const auto& run : r.stats.runs)
      changes_by_pass[run.pass] += run.changes;
  std::puts("\n--- per-pass aggregate (all 12 pipeline-on compiles) ---");
  for (const auto& [pass, changes] : changes_by_pass)
    std::printf("  %-18s changes=%6lld\n", pass.c_str(),
                static_cast<long long>(changes));
  return 0;
}
