// The workload x flow benchmark matrix.
//
// Table II and Fig. 1 measure one kernel (the IDCT) across every frontend.
// The workload registry turns that axis into a grid: every registered
// workload is swept across all of its builders through the one canonical
// tools::compile path, and each (workload, builder) cell reports the
// paper's A / P / Q axes plus the fault-campaign vulnerability factor.
// hlshc_paper workloads drives it.
#pragma once

#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "fault/campaign.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

namespace hlshc::tools {

struct WorkloadBenchOptions {
  /// Workloads to sweep; empty means every registry entry.
  std::vector<std::string> workloads;
  bool include_slow = false;  ///< include builders marked slow (vhls)
  int matrices = 4;           ///< frames per evaluation run
  int campaign_sites = 24;    ///< sampled SEU sites per cell
  uint64_t campaign_seed = 2026;
  uint64_t max_inject_cycle = 60;
  int campaign_matrices = 2;  ///< frames per campaign run
  /// Worker count for the cell sweep; 0 means all cores (HLSHC_JOBS).
  int jobs = 0;
  CompileOptions compile;
};

/// One (workload, builder) cell of the matrix.
struct WorkloadFlowResult {
  std::string workload;
  std::string builder;
  std::string flow;     ///< builder's frontend family
  std::string variant;  ///< builder's option label
  core::DesignEvaluation eval;
  fault::CampaignReport campaign;
  double vulnerability = 0.0;
};

/// Builds, compiles, evaluates and fault-injects every selected cell; cells
/// run across a par::Pool and land in deterministic (workload, builder)
/// order. Throws hlshc::Error on an unknown workload name.
std::vector<WorkloadFlowResult> run_workload_matrix(
    const WorkloadBenchOptions& options = {});

/// Fixed-width ASCII table: one row per cell with functional status, T_P,
/// fmax, P, A, Q and the campaign outcome mix.
std::string render_workload_matrix(
    const std::vector<WorkloadFlowResult>& rows);

}  // namespace hlshc::tools
