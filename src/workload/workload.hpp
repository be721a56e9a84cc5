// The workload registry: the benchmark de-hardwired from the IDCT.
//
// The paper's comparison is one data point — a single 8x8 IDCT pushed
// through seven flows. Everything downstream of the frontends (the
// Section III.C measurement procedure, the fault campaigns, the synthesis
// service, the benches) used to assume that workload by name. A
// WorkloadSpec bundles what they actually need:
//
//   * named frontend builders — one closure per (flow, variant) that
//     elaborates a full canonical-port AXI-Stream design;
//   * a golden reference model over 64-sample frames;
//   * deterministic stimulus generators, seeded via base/rng: the
//     SplitMix64 evaluation stimulus (bit-compatible with the historical
//     core::evaluate_axis_design loop) and the IEEE-1180-style campaign
//     input set;
//   * a QualityJudge — the IEEE 1180 "is this output acceptable" check
//     generalized per workload (the shipped workloads are all bit-exact
//     integer kernels, so their judges are exact equality).
//
// The registry holds the IDCT (its rtl/chisel/bsv/xls/hls builders moved
// behind it without behaviour change) plus a forward 8x8 DCT, a 16-tap FIR
// filter, and an 8x8x8 integer matrix multiply — each with RTL-style,
// Chisel-style (width-inferred), XLS-pipelined and HLS-frontend builders.
// Consumers (core::evaluate_axis_design, fault::run_campaign, tools::flows,
// svc) take a spec instead of calling idct:: directly; a CI guard
// (scripts/check_pipeline_guard.sh) keeps it that way.
//
// Every frame is idct::Block-shaped (64 int32 samples): the substrate's
// AXI-Stream harness streams 8x8 matrices, and all registered workloads
// speak that frame format. Input samples are 12-bit
// (axis::kInElemWidth); output sample width is per-workload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "idct/block.hpp"
#include "netlist/ir.hpp"

namespace hlshc::workload {

/// One 8x8 frame of samples — the unit every registered workload consumes
/// and produces through the AXI-Stream harness.
using Frame = idct::Block;

/// One registered frontend builder of a workload.
struct BuilderInfo {
  std::string name;     ///< unique within the workload (e.g. "verilog_opt2")
  std::string flow;     ///< flow family: verilog/chisel/bsv/xls/bambu/vhls
  std::string variant;  ///< configuration label within the flow
  /// Excluded from the tier-1 conformance pass (hundreds of cycles per
  /// frame); the slow-labelled full matrix still covers it.
  bool slow = false;
  std::function<netlist::Design()> build;
};

/// Per-workload acceptance check for one output frame — the IEEE-1180-style
/// error criterion generalized. A null `accept` means bit-exact equality
/// (every shipped workload: all are integer-exact kernels).
struct QualityJudge {
  std::string description = "bit-exact against the reference model";
  std::function<bool(const Frame& want, const Frame& got)> accept;

  bool ok(const Frame& want, const Frame& got) const {
    return accept ? accept(want, got) : want == got;
  }
};

struct WorkloadSpec {
  std::string name;
  std::string description;
  int out_width = 9;  ///< output sample width on the m lanes
  /// True when every builder is exact on non-realistic full-range stimulus
  /// too. The IDCT sets this false: arbitrary +-2048 coefficient blocks are
  /// not forward-DCT outputs, and its narrow-width builders (inferred
  /// Chisel widths, 16-bit HLS kernel RAM) only contract for realistic
  /// data — see misc_coverage_test "UniformInputsWorkFor32BitFamilies".
  bool full_range_safe = true;
  std::vector<BuilderInfo> builders;

  /// Golden model: one input frame -> the expected output frame.
  std::function<Frame(const Frame&)> reference;
  /// Maps raw spatial-domain samples into the workload's input domain
  /// (the IDCT consumes forward-DCT coefficients; pass-through for
  /// workloads that consume spatial samples directly). Null = identity.
  std::function<Frame(const Frame&)> encode;
  /// One evaluation-stimulus frame drawn from `rng`. `realistic` selects
  /// in-domain data (the Section III.C default) over full-range samples.
  std::function<Frame(SplitMix64& rng, bool realistic)> eval_stimulus;
  /// The whole campaign input set (IEEE-1180-style deterministic RNG).
  std::function<std::vector<Frame>(int matrices, long seed)> campaign_inputs;
  QualityJudge judge;

  const BuilderInfo* find_builder(const std::string& builder_name) const;
  /// Throws hlshc::Error naming the known builders on a miss.
  const BuilderInfo& builder(const std::string& builder_name) const;
};

/// The process-wide workload table. Iteration order (and names()) is
/// lexicographic, so every enumeration — list_designs, conformance suites,
/// the workload x flow matrix — is stable across runs and platforms.
class Registry {
 public:
  /// The singleton with the built-in workloads registered (idct, fdct,
  /// fir16, matmul). Thread-safe first-use construction.
  static const Registry& instance();

  std::vector<std::string> names() const;
  const WorkloadSpec* find(const std::string& name) const;
  /// Throws hlshc::Error naming the known workloads on a miss.
  const WorkloadSpec& get(const std::string& name) const;
  const std::map<std::string, WorkloadSpec>& all() const { return specs_; }

  void add(WorkloadSpec spec);

 private:
  Registry();

  std::map<std::string, WorkloadSpec> specs_;
};

// ---- the one stimulus/compare path ---------------------------------------
//
// core/evaluate.cpp and fault/campaign.cpp used to each carry their own
// copy of the generate-stimulate-compare loop; both now call these, so the
// two can never drift on quality classification.

/// The evaluation input set: `matrices` frames from a SplitMix64 stream.
/// For the idct workload this reproduces the historical
/// core::evaluate_axis_design stimulus bit for bit.
std::vector<Frame> eval_input_set(const WorkloadSpec& spec, int matrices,
                                  uint64_t seed, bool realistic);

/// The campaign input set (IEEE-1180-style RNG). For the idct workload:
/// IEEE 1180 (L,H)=(256,255) spatial blocks pushed through the reference
/// forward DCT, i.e. realistic coefficient matrices.
std::vector<Frame> campaign_input_set(const WorkloadSpec& spec, int matrices,
                                      long seed);

/// Golden outputs for `inputs` through the reference model.
std::vector<Frame> reference_outputs(const WorkloadSpec& spec,
                                     const std::vector<Frame>& inputs);

/// Frames the judge rejects, counting missing/surplus frames as rejected.
/// Zero means the run is functionally acceptable.
int diff_outputs(const WorkloadSpec& spec, const std::vector<Frame>& want,
                 const std::vector<Frame>& got);

}  // namespace hlshc::workload
