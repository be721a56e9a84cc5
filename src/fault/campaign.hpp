// Fault-injection campaign runner.
//
// A campaign drives one design's AXI-Stream interface through an IEEE 1180
// input set once per fault site, with exactly one fault armed per run, and
// classifies every run:
//
//   masked   — outputs bit-exact against the golden result;
//   sdc      — silent data corruption: outputs differ (workload::diff_outputs
//              against the reference model) with no error indication, or
//              the output framing broke (a fault moved TLAST, so a frame
//              closed after other than 8 beats: the `protocol` sub-count);
//   detected — a sticky "*_err" hardening output asserted, or the AXI
//              protocol monitor recorded a violation in a well-framed run
//              (wrong data, but the system knows);
//   hang     — the lane's watchdog fired: the fault wedged the
//              TVALID/TREADY handshake.
//
// Precedence is hang, then detected by a hardening output, then SDC by
// framing, then detected by the monitor, then SDC by data (fault::classify).
//
// The golden reference is the C model when the fault-free design is
// bit-exact against it (every shipped flow is), and the design's own
// fault-free run otherwise — which lets hand-built test netlists reuse the
// harness. Aggregated counts give the design's vulnerability factor; the
// resilience table lines that up with the paper's A, P and Q axes so
// hardened variants can be compared against Table II.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axis/batch.hpp"
#include "base/deadline.hpp"
#include "fault/model.hpp"
#include "idct/block.hpp"
#include "netlist/ir.hpp"
#include "synth/synthesize.hpp"
#include "workload/workload.hpp"

namespace hlshc::fault {

enum class Outcome : uint8_t { kMasked, kSdc, kDetected, kHang };

struct CampaignCounts {
  int masked = 0, sdc = 0, detected = 0, hang = 0;
  /// Of `sdc`: runs whose output framing broke (a frame closed by TLAST
  /// after other than 8 beats). Not a fifth outcome — total() excludes it.
  int protocol = 0;

  int total() const { return masked + sdc + detected + hang; }
  /// Fraction of runs ending in the unacceptable outcomes (SDC or hang).
  double vulnerability() const {
    return total() > 0 ? static_cast<double>(sdc + hang) / total() : 0.0;
  }
};

/// Snapshot handed to the progress callback every `progress_every`
/// *completed* sites. Completion count — not the current site index — is
/// the reported quantity, so the line stays meaningful when sites finish
/// out of index order (lanes and workers complete them as they go).
/// `counts` is the outcome mix of exactly those `completed` sites.
struct CampaignProgress {
  std::string design_name;
  int completed = 0;  ///< sites finished so far
  int total = 0;      ///< sites in the campaign
  CampaignCounts counts;  ///< running outcome mix
};

struct CampaignOptions {
  int matrices = 2;             ///< IEEE 1180 matrices streamed per run
  long input_seed = 1;          ///< seed for the IEEE 1180 input generator
  uint64_t max_cycles = 20000;  ///< per-run watchdog budget
  bool keep_runs = true;        ///< record the per-run (site, outcome) log
  /// Progress reporting cadence in completed sites; 0 disables it. The
  /// default keeps small test campaigns (a handful of sites) silent while a
  /// 1000-site bench campaign reports every 250 sites.
  int progress_every = 250;
  /// Invoked at each cadence tick. When unset, a one-line running summary
  /// goes to stderr — long campaigns are no longer silent by default. The
  /// tracer additionally records an instant event per tick when active.
  /// Thread-safe under jobs > 1: invocations are serialized on a mutex.
  ///
  /// Crash isolation: an exception thrown by the callback can neither abort
  /// nor deadlock the campaign — it is caught, recorded once in
  /// CampaignReport::progress_error, and further callbacks are disarmed for
  /// the rest of the campaign. The outcome counts and run log are unaffected.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Worker count; 0 means "all cores" (HLSHC_JOBS / hardware_concurrency).
  /// Clamped to ceil(sites / lanes). Each worker owns one
  /// sim::BatchSimulator over the shared ExecPlan and streams sites through
  /// it, pulling from one cursor shared by all workers.
  int jobs = 1;
  /// Simulation lanes per worker's sweep. 0 (the default) means
  /// par::default_lanes() (HLSHC_LANES, else 32); 1 is a one-lane batch.
  /// Classifications — counts AND the per-run log — are bitwise identical
  /// at every {lanes, jobs} combination: each lane replays the exact scalar
  /// per-cycle protocol, and each site's classification is a pure function
  /// of (design, site, input set).
  int lanes = 0;
  /// Per-request wall budget (synthesis service): armed on every campaign
  /// simulator, so a whole campaign aborts with DeadlineExceeded mid-run
  /// instead of overrunning its budget site by site.
  std::shared_ptr<const Deadline> deadline;
};

struct RunRecord {
  FaultSite site;
  Outcome outcome = Outcome::kMasked;
};

struct CampaignReport {
  std::string design_name;
  bool reference_functional = false;  ///< fault-free run matches the C model
  CampaignCounts counts;
  std::vector<RunRecord> runs;  ///< empty unless options.keep_runs
  /// what() of the first exception a user on_progress callback threw (empty
  /// when none did). A throwing callback is disarmed after this one record;
  /// the campaign itself runs to completion either way.
  std::string progress_error;
};

/// Output ports whose assertion counts as fault detection: the sticky
/// "*_err" flags the hardening transforms add.
std::vector<netlist::NodeId> detector_outputs(const netlist::Design& d);

/// The one classification rule, shared by the campaign and the oracle
/// tests. `run.probes` holds the detector_outputs() values at the end of
/// the run; `golden` is the fault-free output. Sets `*protocol` when the
/// outcome is SDC by broken framing.
Outcome classify(const workload::WorkloadSpec& spec,
                 const std::vector<idct::Block>& golden,
                 const axis::BatchLaneResult& run, bool* protocol = nullptr);

/// One run per site; every site is validated before any run starts. The
/// campaign stimulus, reference model and SDC judgement come from `spec`.
CampaignReport run_campaign(const netlist::Design& d,
                            const workload::WorkloadSpec& spec,
                            const std::vector<FaultSite>& sites,
                            const CampaignOptions& options = {});

/// A campaign joined with the paper's Table II axes for the same design:
/// measured periodicity, modelled fmax, normalized area A, P and Q — so a
/// hardened variant reports what its protection costs.
struct DesignResilience {
  CampaignReport campaign;
  double fmax_mhz = 0.0;
  double periodicity_cycles = 0.0;
  double throughput_mops = 0.0;  ///< P
  long area = 0;                 ///< A = N*_LUT + N*_FF (maxdsp=0)
  double quality = 0.0;          ///< Q = P/A
};

/// Joins an already-run campaign with the design's A/P/Q: a fault-free
/// timing run against `spec` measures the periodicity. `ds` is the design's
/// synthesis result (both DSP modes); it is injected so the caller controls
/// the netlist pipeline — the paper tables pass the result of
/// tools::compile_synth_normalized, tests may synthesize directly.
DesignResilience resilience_from_campaign(const netlist::Design& d,
                                          const workload::WorkloadSpec& spec,
                                          CampaignReport campaign,
                                          const synth::NormalizedSynth& ds,
                                          const CampaignOptions& options = {});

/// Fixed-width ASCII table over core::Table: one row per design with the
/// outcome counts, vulnerability factor, and the hardened A/P/Q block.
std::string resilience_table(const std::vector<DesignResilience>& rows);

}  // namespace hlshc::fault
