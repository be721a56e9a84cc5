#include "axis/batch.hpp"

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hlshc::axis {

void BatchStreamTestbench::run_jobs(const JobSource& next,
                                    uint64_t max_cycles,
                                    const std::vector<netlist::NodeId>& probes,
                                    const JobDone& on_done) {
  const int lanes = sim_.lanes();
  obs::Span span("testbench.batch_stream", "axis");
  span.arg("design", sim_.design().name())
      .arg("lanes", static_cast<int64_t>(lanes));
  refills_ = 0;
  masked_early_ = 0;

  std::vector<std::unique_ptr<SourceDriver>> sources(
      static_cast<size_t>(lanes));
  std::vector<std::unique_ptr<SinkDriver>> sinks(static_cast<size_t>(lanes));
  std::vector<std::unique_ptr<Monitor>> monitors(static_cast<size_t>(lanes));
  std::vector<size_t> job_of(static_cast<size_t>(lanes), 0);
  std::vector<size_t> want(static_cast<size_t>(lanes), 0);
  std::vector<char> active(static_cast<size_t>(lanes), 0);
  std::vector<char> idle(static_cast<size_t>(lanes), 0);
  int active_count = 0;
  int idle_count = 0;
  int64_t jobs_run = 0;
  bool exhausted = false;
  Job job;
  size_t id = 0;
  const auto pull = [&] {
    if (exhausted || !next(&id, &job)) {
      exhausted = true;
      return false;
    }
    ++jobs_run;
    return true;
  };

  // Fresh driver/monitor state machines over the lane view, exactly as a
  // scalar run would construct them, plus the pulled job's stimulus.
  const auto bind_lane = [&](int l) {
    const size_t sl = static_cast<size_t>(l);
    sources[sl] = std::make_unique<SourceDriver>(sim_.lane(l));
    sinks[sl] = std::make_unique<SinkDriver>(sim_.lane(l));
    monitors[sl] = std::make_unique<Monitor>(sim_.lane(l));
    for (const idct::Block& b : job.inputs) sources[sl]->queue(b);
    job_of[sl] = id;
    want[sl] = job.inputs.size();
    active[sl] = 1;
    ++active_count;
  };

  // Initial fill: arm before reset, so reset_all fires each lane's cycle-0
  // SEU on the reset state. Lanes left without a job leave the sweep.
  for (int l = 0; l < lanes; ++l) {
    if (pull()) {
      sim_.arm_lane_fault(l, job.fault);
      bind_lane(l);
    } else {
      sim_.disarm_lane_fault(l);
    }
  }
  sim_.reset_all();
  for (int l = 0; l < lanes; ++l)
    if (!active[static_cast<size_t>(l)]) sim_.retire_lane(l);

  BatchLaneResult r;
  const auto finish_lane = [&](int l, bool hung) {
    const size_t sl = static_cast<size_t>(l);
    r.matrices = sinks[sl]->matrices();
    r.clean = monitors[sl]->clean();
    r.hung = hung;
    r.malformed = sinks[sl]->malformed_frames();
    // The settled state right after the lane's final step — the read point
    // of the scalar testbench's post-run output reads.
    r.probes.clear();
    for (netlist::NodeId p : probes) r.probes.push_back(sim_.value_i64(l, p));
    r.timing = derive_stream_timing(static_cast<int>(want[sl]),
                                    sim_.lane_cycle(l),
                                    sources[sl]->matrix_start_cycles(),
                                    sinks[sl]->matrix_end_cycles());
    active[sl] = 0;
    --active_count;
    // The lane idles (fault disarmed, no stimulus) until the refill policy
    // hands it the next job; with nothing left it leaves the sweep.
    sim_.disarm_lane_fault(l);
    if (!exhausted) {
      idle[sl] = 1;
      ++idle_count;
    } else {
      sim_.retire_lane(l);
    }
    if (on_done) on_done(job_of[sl], r);
  };

  while (active_count > 0 || (idle_count > 0 && !exhausted)) {
    // Per-lane watchdog on the lane's own clock — the scalar max_cycles
    // contract, so a hang classifies at the same budget as a scalar run
    // regardless of when its lane started.
    for (int l = 0; l < lanes; ++l)
      if (active[static_cast<size_t>(l)] && sim_.lane_cycle(l) >= max_cycles)
        finish_lane(l, true);
    // Refill: once at least half the live lanes sit idle (or nothing is
    // left running), every idle lane restarts on the next job, in
    // ascending lane order.
    if (idle_count > 0 && idle_count >= active_count) {
      for (int l = 0; l < lanes; ++l) {
        const size_t sl = static_cast<size_t>(l);
        if (!idle[sl]) continue;
        if (!pull()) break;
        sim_.refill_lane(l, job.fault);
        bind_lane(l);
        idle[sl] = 0;
        --idle_count;
        ++refills_;
      }
    }
    // Source exhausted: idle lanes leave the sweep so the remaining
    // stragglers pay only for themselves.
    if (exhausted) {
      for (int l = 0; l < lanes; ++l) {
        const size_t sl = static_cast<size_t>(l);
        if (!idle[sl]) continue;
        idle[sl] = 0;
        --idle_count;
        sim_.retire_lane(l);
      }
    }
    if (active_count == 0) continue;
    // One scalar-testbench cycle, in the scalar order, for every active
    // lane: drive, settle all lanes together, consume, check, clock edge.
    for (int l = 0; l < lanes; ++l) {
      if (!active[static_cast<size_t>(l)]) continue;
      sources[static_cast<size_t>(l)]->pre_cycle();
      sinks[static_cast<size_t>(l)]->pre_cycle();
    }
    sim_.eval_all();
    for (int l = 0; l < lanes; ++l) {
      if (!active[static_cast<size_t>(l)]) continue;
      sources[static_cast<size_t>(l)]->post_eval();
      sinks[static_cast<size_t>(l)]->post_eval();
      monitors[static_cast<size_t>(l)]->sample();
    }
    sim_.step_all();
    int finished = 0;
    for (int l = 0; l < lanes; ++l) {
      const size_t sl = static_cast<size_t>(l);
      if (active[sl] && sinks[sl]->matrices().size() >= want[sl]) {
        finish_lane(l, false);
        ++finished;
      }
    }
    // Masked: finished while other lanes kept stepping.
    if (active_count > 0) masked_early_ += finished;
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("sim.batch.sweeps")->add(1);
    reg.counter("sim.batch.lanes")->add(jobs_run);
    reg.counter("sim.batch.refills")->add(refills_);
  }
  span.arg("jobs", jobs_run)
      .arg("cycles", static_cast<int64_t>(sim_.cycle()))
      .arg("refills", static_cast<int64_t>(refills_));
}

}  // namespace hlshc::axis
