// Seeded inputs of the svc_mix and campaign workloads.
//
// Scripts are pure functions of the seed (the benchmark's own SplitMix64,
// so a change to the program's RNG cannot change the inputs) and of the
// design tables below; render() gives their canonical text, which the
// self-test compares byte for byte across two generations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netlist/ir.hpp"

namespace perfbench {

/// A design the synthesis service serves, mirrored from svc::Server's
/// registrations so the script and the replay know its frontend flow and
/// builder without asking the service.
struct DesignRef {
  std::string name;      ///< service name ("idct.bambu", "verilog_opt2", ...)
  std::string workload;  ///< registry workload the name resolves to
  std::string flow;      ///< frontend flow (flow_names())
  bool axi = true;       ///< AXI-Stream ports: evaluate/campaign apply
  std::function<hlshc::netlist::Design()> build;
};

/// Every design svc::Server registers at construction, sorted by name.
std::vector<DesignRef> service_designs();

struct SvcRequest {
  enum class Kind { kCompile, kEvaluate, kMistake };
  Kind kind = Kind::kCompile;
  std::string design;
  bool narrow = true;
  bool strength_reduce = false;
  int stages = 0;
  std::string objective;  ///< "" = the service default
  bool retime = false;
  std::string expect;     ///< "ok" or the wire error code a caller should get
  std::string line;       ///< the request line sent to the service
};

/// Requests per deck, and the client mistakes among them.
inline constexpr size_t kSvcDeck = 500;
inline constexpr size_t kSvcMistakes = 15;

/// `n` requests, drawn as shuffles of one fixed deck (the first deck in
/// the same order for every seed, the rest seeded): 77%
/// Zipf-skewed compiles over every design x knob variant (narrow,
/// strength_reduce, and stages/objective/retime on the raw kernels), 20%
/// Zipf-skewed evaluates on AXI-Stream designs and 3% client-mistake
/// requests whose correct answer is invalid_request.
std::vector<SvcRequest> svc_script(uint64_t seed, size_t n,
                                   const std::vector<DesignRef>& designs);

/// The cache key universe the compile requests draw from (one line per
/// design x knob variant, in Zipf rank order).
size_t svc_key_universe(const std::vector<DesignRef>& designs);

/// One fault::run_campaign call.
struct CampaignOp {
  std::string design;  ///< "<workload>.<builder>"
  std::string kind;    ///< "seu" or "stuck"
  uint64_t site_seed = 0;
  int jobs = 1;
};

/// The AXI designs the campaign workload injects into: all four registry
/// workloads, combinational wrappers beside an HLS FSM design.
const std::vector<std::string>& campaign_designs();

/// Fault sites per campaign operation.
inline constexpr int kCampaignSites = 128;
/// Latest SEU injection cycle.
inline constexpr uint64_t kSeuMaxCycle = 60;

/// The fixed operation catalogue (every design x kind x site seed, half of
/// each design's operations at jobs=1 and half at jobs=2); the pinned
/// outcome counts cover exactly these.
std::vector<CampaignOp> campaign_catalogue();

/// `rounds` seeded shuffles of the catalogue. Within a round the stuck-at
/// and SEU operations interleave at their catalogue ratio, so any prefix
/// has the same mix.
std::vector<CampaignOp> campaign_script(uint64_t seed, int rounds);

std::string render(const std::vector<SvcRequest>& script);
std::string render(const std::vector<CampaignOp>& script);

}  // namespace perfbench
