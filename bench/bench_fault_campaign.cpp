// Fault-injection campaign bench: SEU soft-error campaigns over the Verilog
// IDCT progression (initial 8row+8col vs. the optimized 1row+1col), plus the
// TMR-hardened optimized variant. Reports the outcome mix, the vulnerability
// factor VF = (SDC + hang) / runs, the campaign rate in faults/sec, and the
// paper's A / P / Q axes for each variant — what the hardening costs in
// Table II terms.
//
// Each campaign runs three ways — one lane (lanes=1, jobs=1; the "scalar"
// series), lane-batched (lanes=L, jobs=1) and batched-parallel (lanes=L,
// jobs=N; skipped when jobs == 1) — to report the batch and pool speedups
// alongside the classification results; the outcome counts are asserted
// identical across all runs (the {lanes, jobs} determinism contract).
//
// Writes BENCH_fault.json (cwd) through the obs::RunReport schema.
//
// Usage: bench_fault_campaign [sites_per_design] [--jobs N] [--lanes L]
//                              [--workload NAME|all]
//   sites_per_design defaults to 1000; --jobs defaults to all cores
//   (HLSHC_JOBS / hardware_concurrency); --lanes defaults to
//   par::default_lanes() (HLSHC_LANES, else 32); --workload campaigns a
//   workload registry entry's rtl_comb builder (and its TMR variant)
//   instead of the default IDCT progression; "all" covers every entry.
#include <chrono>
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
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "base/check.hpp"
#include "par/pool.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

using hlshc::format_fixed;
using hlshc::format_grouped;

namespace {

constexpr uint64_t kSampleSeed = 2026;
constexpr uint64_t kMaxInjectCycle = 60;  // within the 2-matrix stream window

struct CampaignTiming {
  double serial_sec = 0.0;    ///< one lane: lanes=1, jobs=1
  double batched_sec = 0.0;   ///< lane-batched: lanes=L, jobs=1
  double parallel_sec = 0.0;  ///< lanes=L, jobs=N (== batched when jobs=1)
  double speedup() const {
    return parallel_sec > 0 ? serial_sec / parallel_sec : 1.0;
  }
  double batch_speedup() const {
    return batched_sec > 0 ? serial_sec / batched_sec : 1.0;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void check_counts_equal(const hlshc::fault::CampaignCounts& a,
                        const hlshc::fault::CampaignCounts& b,
                        const char* what) {
  if (a.masked != b.masked || a.sdc != b.sdc || a.detected != b.detected ||
      a.hang != b.hang) {
    std::fprintf(stderr, "FATAL: %s campaign diverged from the one-lane run\n",
                 what);
    std::exit(1);
  }
}

/// Runs the campaign on one lane (lanes=1, jobs=1), lane-batched (lanes=L,
/// jobs=1), then batched-parallel over `jobs` workers (skipped when
/// jobs == 1), verifies the outcome counts match bit-for-bit across all
/// three runs, and joins the final campaign with the A/P/Q axes.
hlshc::fault::DesignResilience measure(const hlshc::netlist::Design& d,
                                       const hlshc::workload::WorkloadSpec& spec,
                                       const hlshc::synth::NormalizedSynth& ns,
                                       int sites, int jobs, int lanes,
                                       CampaignTiming* timing) {
  auto sampled =
      hlshc::fault::sample_seu_sites(d, sites, kMaxInjectCycle, kSampleSeed);
  hlshc::fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 20000;
  opts.keep_runs = false;  // counts only; the run log is O(sites)

  opts.jobs = 1;
  opts.lanes = 1;
  auto t0 = std::chrono::steady_clock::now();
  hlshc::fault::CampaignReport scalar =
      hlshc::fault::run_campaign(d, spec, sampled, opts);
  timing->serial_sec = seconds_since(t0);

  opts.lanes = lanes;
  t0 = std::chrono::steady_clock::now();
  hlshc::fault::CampaignReport campaign =
      hlshc::fault::run_campaign(d, spec, sampled, opts);
  timing->batched_sec = seconds_since(t0);
  check_counts_equal(scalar.counts, campaign.counts, "lane-batched");

  timing->parallel_sec = timing->batched_sec;
  if (jobs != 1) {
    opts.jobs = jobs;
    t0 = std::chrono::steady_clock::now();
    campaign = hlshc::fault::run_campaign(d, spec, sampled, opts);
    timing->parallel_sec = seconds_since(t0);
    check_counts_equal(scalar.counts, campaign.counts, "batched-parallel");
  }
  return hlshc::fault::resilience_from_campaign(d, spec, std::move(campaign),
                                                ns, opts);
}

}  // namespace

int main(int argc, char** argv) {
  int sites = 1000;
  int jobs = 0;   // 0 = all cores
  int lanes = 0;  // 0 = par::default_lanes()
  std::string workload = "idct";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = hlshc::par::parse_jobs(argv[++i], "--jobs");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      try {
        lanes = hlshc::par::parse_lanes(argv[++i], "--lanes");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else {
      sites = std::atoi(argv[i]);
    }
  }
  if (sites <= 0 || jobs < 0) {
    std::fprintf(stderr,
                 "usage: %s [sites_per_design > 0] [--jobs N] [--lanes L] "
                 "[--workload NAME|all]\n",
                 argv[0]);
    return 1;
  }
  if (jobs == 0) jobs = hlshc::par::default_jobs();
  if (lanes == 0) lanes = hlshc::par::default_lanes();

  // One trace id for the whole invocation — campaign spans, pool chunks and
  // events all correlate under it, exactly like a traced service request.
  const hlshc::obs::TraceScope bench_trace(hlshc::obs::new_trace());

  std::printf(
      "=== SEU campaign: %d sampled sites/design, seed %llu, %d jobs, "
      "%d lanes ===\n\n",
      sites, static_cast<unsigned long long>(kSampleSeed), jobs, lanes);

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

  hlshc::obs::RunReport report("bench_fault_campaign");
  report.params()
      .set("sites_per_design", hlshc::obs::Json::number(sites))
      .set("sample_seed",
           hlshc::obs::Json::number(static_cast<int64_t>(kSampleSeed)))
      .set("max_inject_cycle",
           hlshc::obs::Json::number(static_cast<int64_t>(kMaxInjectCycle)))
      .set("jobs", hlshc::obs::Json::number(jobs))
      .set("lanes", hlshc::obs::Json::number(lanes))
      .set("workload", hlshc::obs::Json::string(workload));
  hlshc::obs::Json designs = hlshc::obs::Json::array();

  std::vector<hlshc::fault::DesignResilience> results;
  for (const Row& row : rows) {
    CampaignTiming timing;
    hlshc::tools::CompileOptions no_pipeline;
    no_pipeline.optimize = false;  // already compiled above, pre-hardening
    hlshc::synth::NormalizedSynth ns =
        hlshc::tools::compile_synth_normalized(row.design, no_pipeline);
    results.push_back(
        measure(row.design, *row.spec, ns, sites, jobs, lanes, &timing));
    const hlshc::fault::DesignResilience& r = results.back();
    const hlshc::fault::CampaignCounts& c = r.campaign.counts;
    double rate =
        timing.parallel_sec > 0 ? sites / timing.parallel_sec : 0.0;
    double rate_scalar =
        timing.serial_sec > 0 ? sites / timing.serial_sec : 0.0;
    double rate_batched =
        timing.batched_sec > 0 ? sites / timing.batched_sec : 0.0;
    std::printf(
        "%-20s %8s faults/sec  masked=%d sdc=%d detected=%d hang=%d  VF=%s\n",
        row.tag.c_str(), format_fixed(rate, 1).c_str(), c.masked, c.sdc,
        c.detected,
        c.hang, format_fixed(c.vulnerability(), 4).c_str());
    std::printf(
        "%-20s scalar %ss  batched(lanes=%d) %ss (%sx)  "
        "parallel(jobs=%d) %ss (%sx)\n",
        "", format_fixed(timing.serial_sec, 2).c_str(), lanes,
        format_fixed(timing.batched_sec, 2).c_str(),
        format_fixed(timing.batch_speedup(), 2).c_str(), jobs,
        format_fixed(timing.parallel_sec, 2).c_str(),
        format_fixed(timing.speedup(), 2).c_str());

    hlshc::obs::Json entry = hlshc::obs::Json::object();
    entry.set("design", hlshc::obs::Json::string(row.tag))
        .set("workload", hlshc::obs::Json::string(row.spec->name))
        .set("runs", hlshc::obs::Json::number(c.total()))
        .set("masked", hlshc::obs::Json::number(c.masked))
        .set("sdc", hlshc::obs::Json::number(c.sdc))
        .set("detected", hlshc::obs::Json::number(c.detected))
        .set("hang", hlshc::obs::Json::number(c.hang))
        .set("vulnerability_factor",
             hlshc::obs::Json::number(c.vulnerability()))
        .set("faults_per_sec", hlshc::obs::Json::number(rate))
        .set("faults_per_sec_scalar", hlshc::obs::Json::number(rate_scalar))
        .set("faults_per_sec_batched", hlshc::obs::Json::number(rate_batched))
        .set("serial_sec", hlshc::obs::Json::number(timing.serial_sec))
        .set("batched_sec", hlshc::obs::Json::number(timing.batched_sec))
        .set("parallel_sec", hlshc::obs::Json::number(timing.parallel_sec))
        .set("speedup", hlshc::obs::Json::number(timing.speedup()))
        .set("batch_speedup",
             hlshc::obs::Json::number(timing.batch_speedup()))
        .set("fmax_mhz", hlshc::obs::Json::number(r.fmax_mhz))
        .set("periodicity_cycles",
             hlshc::obs::Json::number(r.periodicity_cycles))
        .set("throughput_mops", hlshc::obs::Json::number(r.throughput_mops))
        .set("area", hlshc::obs::Json::number(static_cast<int64_t>(r.area)))
        .set("quality", hlshc::obs::Json::number(r.quality));
    designs.push(std::move(entry));
  }
  report.results().set("designs", std::move(designs));
  report.write_file("BENCH_fault.json");
  std::printf("\nwrote BENCH_fault.json\n");

  std::printf("\n%s\n", hlshc::fault::resilience_table(results).c_str());

  // The hardened row is always last, its unhardened baseline right before.
  const size_t tmr_idx = results.size() - 1;
  const size_t base_idx = results.size() - 2;
  const hlshc::fault::CampaignCounts& tmr_counts =
      results[tmr_idx].campaign.counts;
  std::printf("TMR check: %d runs, %d SDC, %d hangs (expect 0 / 0)\n",
              tmr_counts.total(), tmr_counts.sdc, tmr_counts.hang);
  std::printf("TMR area cost: A %s -> %s (%sx), Q %s -> %s\n",
              format_grouped(results[base_idx].area).c_str(),
              format_grouped(results[tmr_idx].area).c_str(),
              format_fixed(static_cast<double>(results[tmr_idx].area) /
                               static_cast<double>(results[base_idx].area),
                           2)
                  .c_str(),
              format_fixed(results[base_idx].quality, 2).c_str(),
              format_fixed(results[tmr_idx].quality, 2).c_str());
  return tmr_counts.sdc == 0 && tmr_counts.hang == 0 ? 0 : 1;
}
