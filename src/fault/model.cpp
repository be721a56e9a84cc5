#include "fault/model.hpp"

#include <sstream>

#include "base/rng.hpp"

namespace hlshc::fault {

using netlist::Design;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSeuReg: return "seu-reg";
    case FaultKind::kSeuMem: return "seu-mem";
    case FaultKind::kStuckAt0: return "stuck-at-0";
    case FaultKind::kStuckAt1: return "stuck-at-1";
    case FaultKind::kTransient: return "transient";
  }
  HLSHC_UNREACHABLE("bad FaultKind");
}

std::string FaultSite::to_string() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (kind == FaultKind::kSeuMem)
    os << " mem " << mem << " [" << addr << ']';
  else
    os << " node " << node;
  os << " bit " << bit;
  if (kind != FaultKind::kStuckAt0 && kind != FaultKind::kStuckAt1)
    os << " @cycle " << cycle;
  return os.str();
}

sim::LaneFault to_lane_fault(const FaultSite& site) {
  sim::LaneFault f;
  switch (site.kind) {
    case FaultKind::kSeuReg: f.kind = sim::LaneFault::Kind::kSeuReg; break;
    case FaultKind::kSeuMem: f.kind = sim::LaneFault::Kind::kSeuMem; break;
    case FaultKind::kStuckAt0: f.kind = sim::LaneFault::Kind::kStuck0; break;
    case FaultKind::kStuckAt1: f.kind = sim::LaneFault::Kind::kStuck1; break;
    case FaultKind::kTransient:
      f.kind = sim::LaneFault::Kind::kTransient;
      break;
  }
  f.node = site.node;
  f.mem = site.mem;
  f.addr = site.addr;
  f.bit = site.bit;
  f.cycle = site.cycle;
  return f;
}

void validate_site(const Design& d, const FaultSite& site) {
  switch (site.kind) {
    case FaultKind::kSeuReg: {
      const Node& n = d.node(site.node);  // validates the id
      HLSHC_CHECK(n.op == Op::Reg, "fault site " << site.to_string()
                                                 << ": node is "
                                                 << netlist::op_name(n.op)
                                                 << ", not a register");
      HLSHC_CHECK(site.bit >= 0 && site.bit < n.width,
                  "fault site " << site.to_string() << ": bit out of width "
                                << n.width);
      break;
    }
    case FaultKind::kSeuMem: {
      HLSHC_CHECK(site.mem >= 0 &&
                      static_cast<size_t>(site.mem) < d.memories().size(),
                  "fault site " << site.to_string() << ": no such memory in '"
                                << d.name() << '\'');
      const netlist::Memory& m = d.memories()[static_cast<size_t>(site.mem)];
      HLSHC_CHECK(site.addr >= 0 && site.addr < m.depth,
                  "fault site " << site.to_string() << ": address out of depth "
                                << m.depth);
      HLSHC_CHECK(site.bit >= 0 && site.bit < m.width,
                  "fault site " << site.to_string() << ": bit out of width "
                                << m.width);
      break;
    }
    case FaultKind::kStuckAt0:
    case FaultKind::kStuckAt1:
    case FaultKind::kTransient: {
      const Node& n = d.node(site.node);
      HLSHC_CHECK(n.op != Op::MemWrite,
                  "fault site " << site.to_string()
                                << ": MemWrite probe values drive nothing");
      HLSHC_CHECK(site.bit >= 0 && site.bit < n.width,
                  "fault site " << site.to_string() << ": bit out of width "
                                << n.width);
      break;
    }
  }
}

// kept: the exhaustive site oracle of Harden.TmrMasksEverySingleRegisterUpset.
std::vector<FaultSite> enumerate_reg_seu_sites(const Design& d,
                                               uint64_t cycle) {
  std::vector<FaultSite> sites;
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    if (n.op != Op::Reg) continue;
    for (int b = 0; b < n.width; ++b)
      sites.push_back({FaultKind::kSeuReg, static_cast<NodeId>(i), -1, 0, b,
                       cycle});
  }
  return sites;
}

namespace {

// Per-site RNG derivation. Each sampled site draws from its own SplitMix64
// seeded as a pure function of (campaign seed, site index):
//
//     state_i = seed + i * GOLDEN;  rng_i = SplitMix64(scramble(state_i))
//
// (seeding SplitMix64 with `seed + i*GOLDEN` and taking one output is
// exactly the SplitMix64 stream evaluated at offset i, so per-index seeds
// inherit the generator's full avalanche). Deriving functionally instead of
// advancing one shared stream site-by-site means:
//
//   * site i's draws do not depend on how many values earlier sites
//     consumed — inserting, dropping or reordering sites leaves every other
//     site's sample unchanged (the old shared stream shifted all of them);
//   * a parallel campaign can hand any site to any worker in any order and
//     still reproduce the serial sample bit-for-bit, which is what makes
//     campaign results thread-count invariant.
SplitMix64 site_rng(uint64_t seed, uint64_t index) {
  SplitMix64 derive(seed + index * 0x9e3779b97f4a7c15ull);
  return SplitMix64(derive.next());
}

}  // namespace

std::vector<FaultSite> sample_seu_sites(const Design& d, int count,
                                        uint64_t max_cycle, uint64_t seed) {
  // The state-bit universe: one entry per register, one per memory.
  struct RegSpan { NodeId node; int width; };
  struct MemSpan { int mem; int depth; int width; };
  std::vector<RegSpan> regs;
  std::vector<MemSpan> mems;
  uint64_t reg_bits = 0, mem_bits = 0;
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    if (n.op != Op::Reg) continue;
    regs.push_back({static_cast<NodeId>(i), n.width});
    reg_bits += static_cast<uint64_t>(n.width);
  }
  for (int m = 0; m < static_cast<int>(d.memories().size()); ++m) {
    const netlist::Memory& mem = d.memories()[static_cast<size_t>(m)];
    mems.push_back({m, mem.depth, mem.width});
    mem_bits += static_cast<uint64_t>(mem.depth) *
                static_cast<uint64_t>(mem.width);
  }
  HLSHC_CHECK(reg_bits + mem_bits > 0, "design '" << d.name()
                                                  << "' has no state to upset");
  std::vector<FaultSite> sites;
  sites.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    SplitMix64 rng = site_rng(seed, static_cast<uint64_t>(i));
    uint64_t pick = rng.next() % (reg_bits + mem_bits);
    FaultSite site;
    site.cycle = max_cycle == 0 ? 0 : rng.next() % (max_cycle + 1);
    if (pick < reg_bits) {
      site.kind = FaultKind::kSeuReg;
      for (const RegSpan& r : regs) {
        if (pick < static_cast<uint64_t>(r.width)) {
          site.node = r.node;
          site.bit = static_cast<int>(pick);
          break;
        }
        pick -= static_cast<uint64_t>(r.width);
      }
    } else {
      pick -= reg_bits;
      site.kind = FaultKind::kSeuMem;
      for (const MemSpan& m : mems) {
        uint64_t span = static_cast<uint64_t>(m.depth) *
                        static_cast<uint64_t>(m.width);
        if (pick < span) {
          site.mem = m.mem;
          site.addr = static_cast<int>(pick / static_cast<uint64_t>(m.width));
          site.bit = static_cast<int>(pick % static_cast<uint64_t>(m.width));
          break;
        }
        pick -= span;
      }
    }
    sites.push_back(site);
  }
  return sites;
}

std::vector<FaultSite> sample_stuck_sites(const Design& d, int count,
                                          uint64_t seed) {
  std::vector<NodeId> candidates;
  for (size_t i = 0; i < d.node_count(); ++i)
    if (d.node(static_cast<NodeId>(i)).op != Op::MemWrite)
      candidates.push_back(static_cast<NodeId>(i));
  HLSHC_CHECK(!candidates.empty(),
              "design '" << d.name() << "' has no stuck-at candidates");
  std::vector<FaultSite> sites;
  sites.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Same functional (seed, index) derivation as sample_seu_sites.
    SplitMix64 rng = site_rng(seed, static_cast<uint64_t>(i));
    NodeId node = candidates[rng.next() % candidates.size()];
    FaultSite site;
    site.kind = (rng.next() & 1) ? FaultKind::kStuckAt1 : FaultKind::kStuckAt0;
    site.node = node;
    site.bit = static_cast<int>(
        rng.next() % static_cast<uint64_t>(d.node(node).width));
    sites.push_back(site);
  }
  return sites;
}

}  // namespace hlshc::fault
