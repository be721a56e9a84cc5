// The three benchmark workloads.
//
//   dse       closed loop: repeated tools::full_dse(4) sweeps over all 254
//             configurations, every point checked against pinned values.
//   svc_mix   closed loop: one client blocking on an in-process
//             svc::Server (two workers) over a seeded Zipf request script.
//   campaign  a seeded sequence of fault::run_campaign operations on
//             pre-compiled AXI designs of all four registry workloads.
//
// Each returns the end-to-end metrics (untraced) or the per-layer metrics
// (traced) of one run plus its correctness and failure accounting.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool traced = false;
  std::string out_dir;       ///< spans and reports are written here
  std::string expected_dir;  ///< pinned expected outputs
};

/// setup_s is the median over this many fresh processes (run_children) of
/// the one-time set-up a user of the workload pays after process start:
/// lazy registry construction included, as in a real first call.
inline constexpr int kSetupChildren = 9;

/// One workload's set-up, timed once, cold, in this process (perfbench
/// --setup-only prints it).
double measure_setup(const std::string& workload);
double dse_setup();
double svc_mix_setup();
double campaign_setup();

Outcome run_dse(const RunOptions& options);
Outcome run_svc_mix(const RunOptions& options);
Outcome run_campaign(const RunOptions& options);

/// Regenerate the pinned expected outputs (dse.tsv, campaign.tsv).
void pin_dse(const std::string& path);
void pin_campaign(const std::string& path);

}  // namespace perfbench
