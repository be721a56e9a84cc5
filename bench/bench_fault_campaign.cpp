// Fault-injection campaign bench: SEU soft-error campaigns over the Verilog
// IDCT progression (initial 8row+8col vs. the optimized 1row+1col), plus the
// TMR-hardened optimized variant. Reports the outcome mix, the vulnerability
// factor VF = (SDC + hang) / runs, and the paper's A / P / Q axes for each
// variant — what the hardening costs in Table II terms.
//
// Each campaign runs once; its outcome counts are identical at every
// {lanes, jobs} combination (batch_test and par_test pin that contract).
// Every "+ TMR" row is checked against its unhardened baseline: the bench
// exits non-zero if any hardened variant shows an SDC or a hang.
//
// Usage: bench_fault_campaign [sites_per_design] [--jobs N]
//                              [--workload NAME|all]
//   sites_per_design defaults to 1000; --jobs defaults to all cores
//   (HLSHC_JOBS / hardware_concurrency); lanes per worker come from
//   par::default_lanes() (HLSHC_LANES, else 32); --workload campaigns a
//   workload registry entry's rtl_comb builder (and its TMR variant)
//   instead of the default IDCT progression; "all" covers every entry.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "fault/campaign.hpp"
#include "fault/harden.hpp"
#include "fault/model.hpp"
#include "netlist/ir.hpp"
#include "base/check.hpp"
#include "par/pool.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

using hlshc::format_fixed;
using hlshc::format_grouped;

namespace {

constexpr uint64_t kSampleSeed = 2026;
constexpr uint64_t kMaxInjectCycle = 60;  // within the 2-matrix stream window

/// Runs the campaign over `jobs` workers and joins it with the A/P/Q axes.
hlshc::fault::DesignResilience measure(const hlshc::netlist::Design& d,
                                       const hlshc::workload::WorkloadSpec& spec,
                                       const hlshc::synth::NormalizedSynth& ns,
                                       int sites, int jobs) {
  auto sampled =
      hlshc::fault::sample_seu_sites(d, sites, kMaxInjectCycle, kSampleSeed);
  hlshc::fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 20000;
  opts.keep_runs = false;  // counts only; the run log is O(sites)
  opts.jobs = jobs;
  return hlshc::fault::resilience_from_campaign(
      d, spec, hlshc::fault::run_campaign(d, spec, sampled, opts), ns, opts);
}

}  // namespace

int main(int argc, char** argv) {
  int sites = 1000;
  int jobs = 0;  // 0 = all cores
  std::string workload = "idct";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = hlshc::par::parse_jobs(argv[++i], "--jobs");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else if (argv[i][0] == '-') {
      sites = 0;  // an unknown flag (or its value) is not a site count
      break;
    } else {
      sites = std::atoi(argv[i]);
    }
  }
  if (sites <= 0 || jobs < 0) {
    std::fprintf(stderr,
                 "usage: %s [sites_per_design > 0] [--jobs N] "
                 "[--workload NAME|all]\n",
                 argv[0]);
    return 1;
  }
  if (jobs == 0) jobs = hlshc::par::default_jobs();

  std::printf(
      "=== SEU campaign: %d sampled sites/design, seed %llu, %d jobs, "
      "%d lanes ===\n\n",
      sites, static_cast<unsigned long long>(kSampleSeed), jobs,
      hlshc::par::default_lanes());

  struct Row {
    std::string tag;
    const hlshc::workload::WorkloadSpec* spec;
    hlshc::netlist::Design design;
  };
  const hlshc::workload::Registry& registry =
      hlshc::workload::Registry::instance();
  std::vector<std::string> workload_names;
  try {
    if (workload == "all")
      workload_names = registry.names();
    else
      workload_names = {registry.get(workload).name};
  } catch (const hlshc::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  // The compile pipeline runs exactly once, *before* hardening: CSE would
  // otherwise merge the TMR triplicates right back into one copy. Synthesis
  // below therefore goes through the canonical entry with the pipeline off.
  std::vector<Row> rows;
  for (const std::string& name : workload_names) {
    const hlshc::workload::WorkloadSpec& spec = registry.get(name);
    if (name == "idct") {
      hlshc::netlist::Design base_initial =
          hlshc::tools::compile(spec.builder("verilog_initial").build()).design;
      hlshc::netlist::Design base_opt2 =
          hlshc::tools::compile(spec.builder("verilog_opt2").build()).design;
      rows.push_back({"verilog initial", &spec, base_initial});
      rows.push_back({"verilog opt2", &spec, base_opt2});
      rows.push_back({"verilog opt2 + TMR", &spec, hlshc::fault::tmr(base_opt2)});
    } else {
      hlshc::netlist::Design base =
          hlshc::tools::compile(spec.builder("rtl_comb").build()).design;
      rows.push_back({name + " rtl_comb", &spec, base});
      rows.push_back({name + " rtl_comb + TMR", &spec,
                      hlshc::fault::tmr(base)});
    }
  }

  std::vector<hlshc::fault::DesignResilience> results;
  for (const Row& row : rows) {
    hlshc::tools::CompileOptions no_pipeline;
    no_pipeline.optimize = false;  // already compiled above, pre-hardening
    hlshc::synth::NormalizedSynth ns =
        hlshc::tools::compile_synth_normalized(row.design, no_pipeline);
    results.push_back(measure(row.design, *row.spec, ns, sites, jobs));
  }

  std::printf("%s\n", hlshc::fault::resilience_table(results).c_str());

  // Each hardened row follows its unhardened baseline.
  bool hardened_ok = true;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (!rows[i].tag.ends_with(" + TMR")) continue;
    const hlshc::fault::DesignResilience& base = results[i - 1];
    const hlshc::fault::DesignResilience& tmr = results[i];
    const hlshc::fault::CampaignCounts& c = tmr.campaign.counts;
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
