// Traced calls into the program's layers.
//
// Each method calls one public entry point of one layer inside a
// Ledger::Scope named after that layer, and accumulates the counts the
// per-layer metrics need (per-pass time from the returned PassStats,
// simulated cycles). Only traced runs use it; untraced runs call the
// program directly.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "netlist/ir.hpp"
#include "synth/schedule.hpp"
#include "synth/synthesize.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

namespace perfbench {

class Layers {
 public:
  Ledger ledger;

  /// A frontend builder of `flow` ("frontend.<flow>").
  hlshc::netlist::Design build(const std::string& flow,
                               const std::function<hlshc::netlist::Design()>& fn);
  /// tools::compile ("netlist.compile").
  hlshc::tools::CompiledDesign compile(const hlshc::netlist::Design& design,
                                       const hlshc::tools::CompileOptions& options);
  /// netlist::ExecPlan::for_design ("netlist.plan").
  void plan(const hlshc::netlist::Design& design);
  /// tools::compile_synth_normalized with optimize=false on an already
  /// compiled design ("synth").
  hlshc::synth::NormalizedSynth synth(const hlshc::netlist::Design& design);
  /// synth::schedule_pipeline ("synth.schedule").
  hlshc::synth::ScheduleResult schedule(const hlshc::netlist::Design& design,
                                        const hlshc::synth::ScheduleOptions& options);
  /// axis::StreamTestbench::run over the workload's evaluation stimulus on
  /// the scalar compiled engine ("sim.scalar"). Returns whether the outputs
  /// match the reference model on a clean protocol.
  bool simulate(const hlshc::netlist::Design& design,
                const hlshc::workload::WorkloadSpec& spec, int matrices);
  /// svc::DesignCache::fingerprint ("svc.key").
  std::string key(const hlshc::netlist::Design& design,
                  const hlshc::tools::CompileOptions& options);
  /// fault::run_campaign ("fault.campaign.<kind>").
  hlshc::fault::CampaignReport campaign(
      const std::string& kind, const hlshc::netlist::Design& design,
      const hlshc::workload::WorkloadSpec& spec,
      const std::vector<hlshc::fault::FaultSite>& sites,
      const hlshc::fault::CampaignOptions& options);
  /// One DSE sweep task of `flow` ("tools.task.<flow>").
  template <typename Fn>
  auto task(const std::string& flow, Fn&& fn) {
    Ledger::Scope s(ledger, "tools.task." + flow);
    return fn();
  }

  /// Writes every ledger-derived per-layer metric into `out` (layers this
  /// workload never called read 0), the per-layer self-time table into
  /// out.lines, and the spans to `spans_path`.
  void report(Outcome& out, const std::string& spans_path) const;

 private:
  struct PassTotals {
    int64_t compiles = 0;
    int64_t iterations = 0;
    int64_t nodes_before = 0;
    int64_t nodes_after = 0;
    std::map<std::string, int64_t> ns;  ///< per pass
  } passes_;
  uint64_t sim_cycles_ = 0;
};

}  // namespace perfbench
