// Fault models for the resilience campaigns.
//
// A FaultSite names one physical defect in a netlist design:
//
//   * kSeuReg / kSeuMem — a single-event upset: one bit of one register
//     (or one memory word) flips at one clock cycle and stays flipped until
//     overwritten, the classic soft-error model for user flops and BRAM;
//   * kStuckAt0 / kStuckAt1 — a permanent stuck-at on one bit of any
//     netlist node's combinational value (configuration-memory upsets and
//     manufacturing defects look like this at the netlist level);
//   * kTransient — a single-cycle glitch: one bit of a node's value is
//     inverted during exactly one cycle's combinational settle.
//
// Sites are enumerated deterministically (every register/memory bit) or
// sampled with a per-site SplitMix64 derived functionally from
// (seed, site_index) — see model.cpp — so campaigns are reproducible
// run-to-run and invariant to sharding order under parallel execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/ir.hpp"
#include "sim/engine.hpp"

namespace hlshc::fault {

enum class FaultKind : uint8_t {
  kSeuReg,
  kSeuMem,
  kStuckAt0,
  kStuckAt1,
  kTransient,
};

const char* fault_kind_name(FaultKind kind);

struct FaultSite {
  FaultKind kind = FaultKind::kSeuReg;
  netlist::NodeId node = netlist::kInvalidNode;  ///< target node (not kSeuMem)
  int mem = -1;        ///< memory id (kSeuMem only)
  int addr = 0;        ///< word address (kSeuMem only)
  int bit = 0;         ///< bit index within the target value
  uint64_t cycle = 0;  ///< injection cycle (SEU/transient; unused: stuck-at)

  std::string to_string() const;
};

/// Throws hlshc::Error unless `site` names a real location in `d`: the node
/// must exist and be a register for kSeuReg, the memory/address must exist
/// for kSeuMem, the bit must fit the target width, and stuck-at/transient
/// targets must not be MemWrite sinks (whose probe value drives nothing).
void validate_site(const netlist::Design& d, const FaultSite& site);

/// The site as the simulator's fault model: the one FaultSite -> LaneFault
/// conversion, used to arm every engine and every batch lane.
sim::LaneFault to_lane_fault(const FaultSite& site);

/// Every register bit of `d` as an SEU site injected at `cycle`.
std::vector<FaultSite> enumerate_reg_seu_sites(const netlist::Design& d,
                                               uint64_t cycle);

/// `count` SEU sites drawn uniformly over all register and memory bits of
/// `d`, each with an injection cycle uniform in [0, max_cycle]. Deterministic
/// in `seed`. Throws if `d` holds no sequential state.
std::vector<FaultSite> sample_seu_sites(const netlist::Design& d, int count,
                                        uint64_t max_cycle, uint64_t seed);

/// `count` stuck-at sites (alternating polarity by draw) over the bits of
/// every non-MemWrite node. Deterministic in `seed`.
std::vector<FaultSite> sample_stuck_sites(const netlist::Design& d, int count,
                                          uint64_t seed);

}  // namespace hlshc::fault
