#include "fault/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "axis/testbench.hpp"
#include "base/strings.hpp"
#include "core/report.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "sim/compiled.hpp"
#include "synth/synthesize.hpp"

namespace hlshc::fault {

using netlist::Design;
using netlist::NodeId;

std::vector<NodeId> detector_outputs(const Design& d) {
  std::vector<NodeId> ids;
  for (NodeId o : d.outputs())
    if (d.node(o).name.ends_with("_err")) ids.push_back(o);
  return ids;
}

Outcome classify(const workload::WorkloadSpec& spec,
                 const std::vector<idct::Block>& golden,
                 const axis::BatchLaneResult& run, bool* protocol) {
  if (protocol) *protocol = false;
  if (run.hung) return Outcome::kHang;
  for (int64_t flag : run.probes)
    if (flag != 0) return Outcome::kDetected;
  // A frame of the wrong length is the design's output going wrong: the
  // monitor's framing report for it is the symptom, not a detection.
  if (run.malformed > 0) {
    if (protocol) *protocol = true;
    return Outcome::kSdc;
  }
  if (!run.clean) return Outcome::kDetected;
  if (workload::diff_outputs(spec, golden, run.matrices) != 0)
    return Outcome::kSdc;
  return Outcome::kMasked;
}

namespace {

/// Shared disarm state for a campaign's progress callbacks. A user callback
/// that throws must not take the campaign down with it (under jobs > 1 the
/// exception would abort the pool loop mid-shard): the first throw is
/// recorded here and every later tick skips the callback entirely.
struct ProgressGuard {
  bool disarmed = false;
  std::string error;  ///< what() of the first throw
};

/// Called with the campaign's progress mutex held, so callbacks are
/// serialized and the guard needs no lock of its own.
void report_progress(const CampaignOptions& options,
                     const CampaignProgress& progress,
                     ProgressGuard* guard) {
  obs::tracer().instant("campaign.progress", "fault");
  if (options.on_progress) {
    if (guard->disarmed) return;
    try {
      options.on_progress(progress);
    } catch (const std::exception& e) {
      guard->disarmed = true;
      guard->error = e.what();
    } catch (...) {
      guard->disarmed = true;
      guard->error = "unknown exception";
    }
    return;
  }
  // The leading figure is the completed-site count, never a site index —
  // under parallel execution indices complete out of order, but "N of M
  // done" stays monotone and meaningful at any worker count.
  std::fprintf(stderr,
               "[campaign %s] %d/%d sites (masked=%d sdc=%d detected=%d "
               "hang=%d)\n",
               progress.design_name.c_str(), progress.completed,
               progress.total, progress.counts.masked, progress.counts.sdc,
               progress.counts.detected, progress.counts.hang);
}

void count_outcome(Outcome outcome, bool protocol, CampaignCounts* counts) {
  switch (outcome) {
    case Outcome::kMasked: ++counts->masked; break;
    case Outcome::kSdc: ++counts->sdc; break;
    case Outcome::kDetected: ++counts->detected; break;
    case Outcome::kHang: ++counts->hang; break;
  }
  if (protocol) ++counts->protocol;
}

}  // namespace

CampaignReport run_campaign(const Design& d,
                            const workload::WorkloadSpec& spec,
                            const std::vector<FaultSite>& sites,
                            const CampaignOptions& options) {
  const int lanes = std::clamp(
      options.lanes == 0 ? par::default_lanes() : options.lanes, 1,
      par::kMaxLanes);
  const int64_t shards =
      (static_cast<int64_t>(sites.size()) + lanes - 1) / lanes;
  const int jobs = static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(
             options.jobs <= 0 ? par::default_jobs() : options.jobs, shards)));
  obs::Span span("fault.campaign", "fault");
  span.arg("design", d.name())
      .arg("workload", spec.name)
      .arg("sites", static_cast<int64_t>(sites.size()))
      .arg("jobs", static_cast<int64_t>(jobs))
      .arg("lanes", static_cast<int64_t>(lanes));
  for (const FaultSite& site : sites) validate_site(d, site);

  CampaignReport report;
  report.design_name = d.name();

  const std::vector<idct::Block> inputs = workload::campaign_input_set(
      spec, options.matrices, options.input_seed);
  const std::vector<idct::Block> model =
      workload::reference_outputs(spec, inputs);

  // The fault-free reference run also pre-warms every derived cache on the
  // design — validation and the shared ExecPlan — so worker-side simulator
  // construction below is a pure read of the design. Capture the plan
  // identity to assert the "compiled exactly once" contract.
  std::vector<idct::Block> reference;
  std::shared_ptr<const void> plan_before;
  {
    sim::CompiledSimulator sim(d);
    if (options.deadline) sim.set_deadline(options.deadline);
    plan_before = d.cached_exec_plan();
    axis::StreamTestbench tb(sim);
    reference = tb.run(inputs, options.max_cycles);
  }
  report.reference_functional =
      workload::diff_outputs(spec, model, reference) == 0;
  const std::vector<idct::Block>& golden =
      report.reference_functional ? model : reference;

  // The one campaign loop: `jobs` workers, each streaming sites through its
  // own BatchSimulator(d, lanes) with refill. Every worker pulls from one
  // shared cursor, so a run of hang-heavy sites cannot strand one worker
  // with a straggling slice. Outcomes land in per-site slots and merge in
  // site order, so counts and the run log are bitwise identical at every
  // {lanes, jobs}: each site's classification is a pure function of
  // (design, site, input set).
  const std::vector<NodeId> detectors = detector_outputs(d);
  const int total = static_cast<int>(sites.size());
  std::vector<Outcome> outcomes(sites.size());
  std::atomic<size_t> cursor{0};
  std::mutex progress_mutex;  // guards the running counts and progress
  int completed = 0;
  ProgressGuard progress_guard;

  const auto worker = [&] {
    sim::BatchSimulator bsim(d, lanes);
    if (options.deadline) bsim.set_deadline(options.deadline);
    axis::BatchStreamTestbench tb(bsim);
    tb.run_jobs(
        [&](size_t* id, axis::BatchStreamTestbench::Job* job) {
          const size_t i = cursor.fetch_add(1);
          if (i >= sites.size()) return false;
          *id = i;
          job->inputs = inputs;
          job->fault = to_lane_fault(sites[i]);
          return true;
        },
        options.max_cycles, detectors,
        [&](size_t i, const axis::BatchLaneResult& r) {
          bool protocol = false;
          outcomes[i] = classify(spec, golden, r, &protocol);
          // Progress cadence: once per multiple of progress_every completed
          // sites, with the running counts of exactly those sites.
          std::lock_guard<std::mutex> lock(progress_mutex);
          count_outcome(outcomes[i], protocol, &report.counts);
          ++completed;
          if (options.progress_every > 0 &&
              completed % options.progress_every == 0)
            report_progress(options,
                            {d.name(), completed, total, report.counts},
                            &progress_guard);
        });
    if (obs::enabled()) {
      obs::registry()
          .counter("fault.lanes_masked")
          ->add(tb.lanes_masked_early());
      obs::registry().counter("fault.lane_refills")->add(tb.lane_refills());
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    par::Pool pool(jobs);
    pool.parallel_for(jobs, [&](int64_t) { worker(); });
  }

  if (options.keep_runs) {
    report.runs.reserve(sites.size());
    for (size_t i = 0; i < sites.size(); ++i)
      report.runs.push_back({sites[i], outcomes[i]});
  }
  report.progress_error = progress_guard.error;
  HLSHC_CHECK(d.cached_exec_plan().get() == plan_before.get(),
              "ExecPlan for '" << d.name()
                               << "' was recompiled mid-campaign — the "
                                  "design mutated under the workers");
  obs::log_event(obs::EventLevel::kInfo, "fault.campaign",
                 {{"design", d.name()},
                  {"workload", spec.name},
                  {"sites", std::to_string(sites.size())},
                  {"jobs", std::to_string(jobs)},
                  {"lanes", std::to_string(lanes)},
                  {"masked", std::to_string(report.counts.masked)},
                  {"sdc", std::to_string(report.counts.sdc)},
                  {"protocol", std::to_string(report.counts.protocol)},
                  {"detected", std::to_string(report.counts.detected)},
                  {"hang", std::to_string(report.counts.hang)}});
  return report;
}

DesignResilience resilience_from_campaign(const Design& d,
                                          const workload::WorkloadSpec& spec,
                                          CampaignReport campaign,
                                          const synth::NormalizedSynth& ds,
                                          const CampaignOptions& options) {
  DesignResilience r;
  r.campaign = std::move(campaign);

  // Fault-free timing run with enough matrices for a steady-state T_P.
  sim::CompiledSimulator sim(d);
  axis::StreamTestbench tb(sim);
  const int matrices = std::max(options.matrices, 4);
  tb.run(workload::campaign_input_set(spec, matrices, options.input_seed),
         options.max_cycles * static_cast<uint64_t>(matrices));
  r.periodicity_cycles = tb.timing().periodicity_cycles;

  r.fmax_mhz = ds.normal.fmax_mhz;
  r.area = ds.area();
  r.throughput_mops =
      r.periodicity_cycles > 0 ? r.fmax_mhz / r.periodicity_cycles : 0.0;
  r.quality = r.area > 0
                  ? r.throughput_mops * 1e6 / static_cast<double>(r.area)
                  : 0.0;
  return r;
}

std::string resilience_table(const std::vector<DesignResilience>& rows) {
  core::Table table({"design", "runs", "masked", "sdc", "detected", "hang",
                     "VF", "fmax", "T_P", "P(MOPS)", "A", "Q"});
  for (const DesignResilience& r : rows) {
    const CampaignCounts& c = r.campaign.counts;
    table.add_row({r.campaign.design_name, std::to_string(c.total()),
                   std::to_string(c.masked), std::to_string(c.sdc),
                   std::to_string(c.detected), std::to_string(c.hang),
                   format_fixed(100.0 * c.vulnerability(), 1) + "%",
                   format_fixed(r.fmax_mhz, 1),
                   format_fixed(r.periodicity_cycles, 1),
                   format_fixed(r.throughput_mops, 2),
                   format_grouped(r.area), format_fixed(r.quality, 1)});
  }
  return table.render();
}

}  // namespace hlshc::fault
