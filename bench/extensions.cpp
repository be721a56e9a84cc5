// Extensions beyond the paper: the mixed-flow composition design space its
// future-work framework opens, and SEU fault-injection campaigns with TMR
// hardening priced on the paper's A / P / Q axes.
#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "chisel/designs.hpp"
#include "core/evaluate.hpp"
#include "core/report.hpp"
#include "fault/campaign.hpp"
#include "fault/harden.hpp"
#include "fault/model.hpp"
#include "framework/compose.hpp"
#include "hls/ast.hpp"
#include "hls/tool.hpp"
#include "paper.hpp"
#include "par/pool.hpp"
#include "rtl/units.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"
#include "xls/pipeline.hpp"

namespace hlshc::paper {

namespace {

struct PassSource {
  std::string name;
  std::function<netlist::Design(bool is_row)> build;  // comb pass kernel
};

netlist::Design rtl_pass(bool is_row) {
  netlist::Design d(is_row ? "rtl_row" : "rtl_col");
  std::array<netlist::NodeId, 8> in;
  for (int i = 0; i < 8; ++i)
    in[static_cast<size_t>(i)] =
        d.input("i" + std::to_string(i), is_row ? 12 : 16);
  auto out = is_row ? rtl::build_row_unit(d, in) : rtl::build_col_unit(d, in);
  for (int i = 0; i < 8; ++i)
    d.output("o" + std::to_string(i), out[static_cast<size_t>(i)]);
  return d;
}

netlist::Design hls_pass(bool is_row) {
  static hls::Program prog = hls::parse(hls::idct_source());
  hls::LeafDfg leaf =
      hls::lower_leaf(prog, is_row ? "idctrow" : "idctcol", 0);
  return hls::leaf_to_netlist(leaf, is_row ? "hls_row" : "hls_col",
                              is_row ? 12 : 16);
}

netlist::Design chisel_pass(bool is_row) {
  return is_row ? chisel::build_row_pass_kernel()
                : chisel::build_col_pass_kernel(16);
}

}  // namespace

// Every (row-pass source) x (column-pass source) x (pipeline depth)
// combination composed behind generated interfaces (src/framework), as the
// same Performance x Area scatter as Fig. 1 — including points that beat
// every single-flow design of Table II.
int extension_mixed(const Args&) {
  std::puts("=== Extension: the mixed-flow composition design space ===");
  std::puts("(not in the paper — enabled by its future-work framework)\n");

  const std::vector<PassSource> sources = {
      {"verilog", rtl_pass}, {"hls-c", hls_pass}, {"chisel", chisel_pass}};
  std::vector<core::ScatterPoint> points;
  std::puts("row-src   col-src   stages  fmax(MHz)   T_L  T_P     A        Q");
  for (const PassSource& rs : sources) {
    for (const PassSource& cs : sources) {
      for (int stages : {1, 2}) {
        auto row = xls::pipeline_function(rs.build(true), stages);
        auto col = xls::pipeline_function(cs.build(false), stages);
        netlist::Design d = framework::compose_row_col(
            framework::PassKernel{row.design, row.latency},
            framework::PassKernel{col.design, col.latency}, 16,
            rs.name + "+" + cs.name + "_s" + std::to_string(stages));
        core::DesignEvaluation ev = tools::evaluate_design(d);
        if (!ev.functional) {
          std::printf("%-9s %-9s %5d   NOT FUNCTIONAL\n", rs.name.c_str(),
                      cs.name.c_str(), stages);
          continue;
        }
        std::printf("%-9s %-9s %5d %10s %5d %4s %8ld %8s\n", rs.name.c_str(),
                    cs.name.c_str(), stages,
                    format_fixed(ev.fmax_mhz, 2).c_str(), ev.latency_cycles,
                    format_fixed(ev.periodicity_cycles, 0).c_str(), ev.area,
                    format_fixed(ev.quality(), 0).c_str());
        points.push_back(core::ScatterPoint{
            rs.name + "+" + cs.name, "s" + std::to_string(stages),
            ev.throughput_mops, ev.area});
      }
    }
  }

  std::puts("\n--- Pareto frontier of the composition space ---");
  for (const auto& p : core::pareto_front(points))
    std::printf("  %-18s %-4s P=%6.2f MOPS  A=%6ld  Q=%.0f\n",
                p.family.c_str(), p.config.c_str(), p.throughput_mops,
                p.area, p.quality());
  std::puts("\nTakeaway: the composed designs all sustain periodicity 8 at "
            "latency 24+Lr+Lc,\nand cross-tool mixes are as good as "
            "single-tool ones — the interoperability\nthe paper's future "
            "framework is after.");
  return 0;
}

// SEU campaigns over the Verilog IDCT progression (initial 8row+8col vs the
// optimized 1row+1col) plus the TMR-hardened optimized variant, or with
// --workload over a registry entry's rtl_comb builder and its TMR variant.
// Reports the outcome mix, the vulnerability factor VF = (SDC + hang) /
// runs, and A / P / Q per variant. Outcome counts are identical at every
// {lanes, jobs} combination (batch_test and par_test pin that). Exits 1 if
// any "+ TMR" row shows an SDC or a hang.
int fault(const Args& args) {
  constexpr uint64_t kSampleSeed = 2026;
  constexpr uint64_t kMaxInjectCycle = 60;  // within the 2-matrix window
  const workload::Registry& registry = workload::Registry::instance();
  const std::vector<std::string> names =
      args.workload == "all"
          ? registry.names()
          : std::vector<std::string>{registry.get(args.workload).name};
  std::fprintf(stderr, "(%d jobs, %d lanes)\n", args.jobs,
               par::default_lanes());
  std::printf("=== SEU campaign: %d sampled sites/design, seed %llu ===\n\n",
              args.sites, static_cast<unsigned long long>(kSampleSeed));

  struct Row {
    std::string tag;
    const workload::WorkloadSpec* spec;
    netlist::Design design;
  };
  // The compile pipeline runs exactly once, *before* hardening: CSE would
  // otherwise merge the TMR triplicates right back into one copy, so the
  // rows are synthesized below with the pipeline off.
  std::vector<Row> rows;
  for (const std::string& name : names) {
    const workload::WorkloadSpec& spec = registry.get(name);
    const auto build = [&spec](const char* builder) {
      return tools::compile(spec.builder(builder).build()).design;
    };
    if (name == "idct") {
      netlist::Design opt2 = build("verilog_opt2");
      rows.push_back({"verilog initial", &spec, build("verilog_initial")});
      rows.push_back({"verilog opt2", &spec, opt2});
      rows.push_back({"verilog opt2 + TMR", &spec, fault::tmr(opt2)});
    } else {
      netlist::Design base = build("rtl_comb");
      rows.push_back({name + " rtl_comb", &spec, base});
      rows.push_back({name + " rtl_comb + TMR", &spec, fault::tmr(base)});
    }
  }

  std::vector<fault::DesignResilience> results;
  for (const Row& row : rows) {
    tools::CompileOptions no_pipeline;
    no_pipeline.optimize = false;
    const synth::NormalizedSynth ns =
        tools::compile_synth_normalized(row.design, no_pipeline);
    fault::CampaignOptions opts;
    opts.matrices = 2;
    opts.max_cycles = 20000;
    opts.keep_runs = false;  // counts only; the run log is O(sites)
    opts.jobs = args.jobs;
    const auto sites = fault::sample_seu_sites(row.design, args.sites,
                                               kMaxInjectCycle, kSampleSeed);
    results.push_back(fault::resilience_from_campaign(
        row.design, *row.spec,
        fault::run_campaign(row.design, *row.spec, sites, opts), ns, opts));
  }
  std::printf("%s\n", fault::resilience_table(results).c_str());

  // Each hardened row follows its unhardened baseline.
  bool hardened_ok = true;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (!rows[i].tag.ends_with(" + TMR")) continue;
    const fault::DesignResilience& base = results[i - 1];
    const fault::DesignResilience& tmr = results[i];
    const fault::CampaignCounts& c = tmr.campaign.counts;
    hardened_ok = hardened_ok && c.sdc == 0 && c.hang == 0;
    std::printf("TMR check (%s): %d runs, %d SDC, %d hangs (expect 0 / 0)\n",
                rows[i].tag.c_str(), c.total(), c.sdc, c.hang);
    std::printf("TMR area cost (%s): A %s -> %s (%sx), Q %s -> %s\n",
                rows[i].tag.c_str(), format_grouped(base.area).c_str(),
                format_grouped(tmr.area).c_str(),
                format_fixed(static_cast<double>(tmr.area) /
                                 static_cast<double>(base.area),
                             2)
                    .c_str(),
                format_fixed(base.quality, 2).c_str(),
                format_fixed(tmr.quality, 2).c_str());
  }
  return hardened_ok ? 0 : 1;
}

}  // namespace hlshc::paper
