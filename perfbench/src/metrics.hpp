// The benchmark's metric catalogue and result record.
//
// Every metric the benchmark prints is declared here once; BENCHMARK.json
// at the repository root lists the same names (the self-test checks that
// the two agree). End-to-end metrics are what a user of the flows sees and
// are printed by untraced runs (--trace 0); per-layer metrics come from the
// traced run (--trace 1) and each names the end-to-end metric and workload
// it is expected to move.
//
// One metric name means the same measured quantity on every workload, read
// per workload: ops_per_s counts DSE configurations on `dse`, service
// requests on `svc_mix` and classified fault sites on `campaign`; a latency
// is one full_dse sweep, one request or one run_campaign call respectively.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  /// Per-layer metrics: the end-to-end metric(s) and workload(s) a change
  /// to this layer should move. Empty for end-to-end metrics.
  std::string moves;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// The seven frontend flows, in Table I order.
const std::vector<std::string>& flow_names();
/// The default compile pipeline's passes (netlist::registered_pass_names).
const std::vector<std::string>& pass_names();

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failed operations by cause (error code plus the program's message).
  std::map<std::string, int64_t> failure_causes;
  /// Expected rejections (client-mistake requests answered as such).
  int64_t rejected = 0;
  std::vector<std::string> mismatches;  ///< pinned-output check failures
  std::map<std::string, double> metrics;
  std::vector<std::string> lines;  ///< human-readable report lines

  void fail(const std::string& cause) {
    ++failed;
    ++failure_causes[cause];
  }
  void mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

/// A failure cause for the report: `what` plus the program's message with
/// any directory prefix before "src/" removed, cut to one short line.
std::string cause(const std::string& what, const std::string& message);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
/// Samples strictly above the nearest-rank q-percentile position.
size_t samples_beyond(size_t n, double q);
double median(std::vector<double> values);

/// The result object printed as the last stdout line: every metric of the
/// selected list (end-to-end when !traced, per-layer when traced), each
/// with its unit. Throws when a metric is missing or not finite.
std::string result_json(const Outcome& outcome, bool traced);

}  // namespace perfbench
