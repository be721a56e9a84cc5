// axis::BatchStreamTestbench — the lockstep lane harness over
// sim::BatchSimulator.
//
// Each lane gets its own SourceDriver / SinkDriver / Monitor instance bound
// to that lane's PortAccess view — the *same* driver and monitor state
// machines StreamTestbench uses for scalar engines — and all lanes advance
// through one shared step_all() per cycle. Because a lane's stimulus, its
// handshake decisions and its protocol checks run exactly the scalar code
// over exactly the scalar per-cycle protocol, a lane's captured matrices,
// violations and timing are bitwise-identical to the same run on a scalar
// engine.
//
// Jobs stream through the lanes: a lane is done when its sink has collected
// its quota of matrices (or its own cycle budget runs out: hung); done
// lanes idle until the refill policy hands them the next job, and leave
// the sweep once the job source is exhausted — the lane-major arrays
// compact, so a single straggler degrades toward scalar cost.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "axis/testbench.hpp"
#include "sim/batch.hpp"

namespace hlshc::axis {

/// One lane's run result.
struct BatchLaneResult {
  std::vector<idct::Block> matrices;
  bool clean = true;   ///< no protocol violations up to lane completion
  bool hung = false;   ///< lane did not finish within max_cycles
  int malformed = 0;   ///< frames TLAST closed after other than 8 beats
  /// Probe node values sampled at lane completion (the settled state right
  /// after the lane's final step), canonical int64 per probe.
  std::vector<int64_t> probes;
  StreamTiming timing;
};

class BatchStreamTestbench {
 public:
  explicit BatchStreamTestbench(sim::BatchSimulator& sim) : sim_(sim) {}

  /// One unit of streamed work: an input set plus the fault armed for its
  /// whole run (kNone = clean). Each job's result is bitwise-identical to
  /// a scalar run of the same fault/inputs from reset.
  struct Job {
    std::vector<idct::Block> inputs;
    sim::LaneFault fault;
  };
  /// Hands out the next job and its caller-side id; false once exhausted.
  using JobSource = std::function<bool(size_t* id, Job* job)>;
  using JobDone = std::function<void(size_t id, const BatchLaneResult&)>;

  /// Pulls jobs from `next` through the lane pool, refilling freed lanes
  /// with fresh jobs instead of draining the batch behind a straggler.
  /// Lanes that finish (or hang — each lane gets its own `max_cycles`
  /// budget on its own clock) go idle; once at least half the live lanes
  /// are idle (or no lane is left running), every idle lane is refilled via
  /// sim::BatchSimulator::refill_lane with the next jobs, in ascending lane
  /// order. `on_done(id, result)` fires as each job completes, in
  /// completion order. `probes` names nodes sampled at each completion.
  void run_jobs(const JobSource& next, uint64_t max_cycles,
                const std::vector<netlist::NodeId>& probes,
                const JobDone& on_done);

  /// Jobs of the last run_jobs() that completed while other lanes kept
  /// stepping (their lane idled or left the sweep behind stragglers).
  int lanes_masked_early() const { return masked_early_; }
  /// Mid-sweep lane refills performed by the last run_jobs().
  int lane_refills() const { return refills_; }

 private:
  sim::BatchSimulator& sim_;
  int masked_early_ = 0;
  int refills_ = 0;
};

}  // namespace hlshc::axis
