// The interpreter oracle for fault campaigns.
//
// One sim::Simulator run per site — the fault armed through
// Engine::arm_fault, the stimulus streamed by the scalar StreamTestbench —
// classified by the campaign's own fault::classify. The equivalence suites
// hold fault::run_campaign (one BatchSimulator loop at every {lanes, jobs})
// against this: the interpreter's BitVec math and the scalar testbench
// share no execution code with the batched path.
#pragma once

#include <vector>

#include "axis/testbench.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace hlshc::testutil {

struct OracleCampaign {
  fault::CampaignCounts counts;
  std::vector<fault::Outcome> outcomes;  ///< in site order
};

inline OracleCampaign oracle_campaign(const netlist::Design& d,
                                      const workload::WorkloadSpec& spec,
                                      const std::vector<fault::FaultSite>& sites,
                                      const fault::CampaignOptions& opts) {
  const std::vector<idct::Block> inputs =
      workload::campaign_input_set(spec, opts.matrices, opts.input_seed);
  const std::vector<idct::Block> model =
      workload::reference_outputs(spec, inputs);
  sim::Simulator sim(d);
  std::vector<idct::Block> reference;
  {
    axis::StreamTestbench tb(sim);
    reference = tb.run(inputs, opts.max_cycles);
  }
  const std::vector<idct::Block>& golden =
      workload::diff_outputs(spec, model, reference) == 0 ? model : reference;
  const std::vector<netlist::NodeId> detectors = fault::detector_outputs(d);

  OracleCampaign out;
  for (const fault::FaultSite& site : sites) {
    sim.arm_fault(fault::to_lane_fault(site));
    axis::BatchLaneResult run;
    axis::StreamTestbench tb(sim);
    try {
      run.matrices = tb.run(inputs, opts.max_cycles);
      run.clean = tb.monitor().clean();
      run.malformed = tb.sink().malformed_frames();
      for (netlist::NodeId p : detectors)
        run.probes.push_back(sim.value(p).to_int64());
    } catch (const sim::SimTimeout&) {
      run.hung = true;
    }
    bool protocol = false;
    const fault::Outcome o = fault::classify(spec, golden, run, &protocol);
    out.outcomes.push_back(o);
    switch (o) {
      case fault::Outcome::kMasked: ++out.counts.masked; break;
      case fault::Outcome::kSdc: ++out.counts.sdc; break;
      case fault::Outcome::kDetected: ++out.counts.detected; break;
      case fault::Outcome::kHang: ++out.counts.hang; break;
    }
    out.counts.protocol += protocol;
  }
  sim.disarm_fault();
  return out;
}

}  // namespace hlshc::testutil
