// Fault-injection subsystem tests: model determinism and validation, the
// simulator's injection hooks, campaign outcome classification on hand-built
// mini netlists, and the hardening guarantees (TMR masks single faults,
// parity detects single memory bit-flips).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "axis/stream.hpp"
#include "fault/campaign.hpp"
#include "fault/harden.hpp"
#include "fault/model.hpp"
#include "netlist/ir.hpp"
#include "rtl/designs.hpp"
#include "sim/simulator.hpp"
#include "synth/synthesize.hpp"

namespace hlshc::fault {
namespace {

using netlist::Design;
using netlist::NodeId;
using netlist::Op;

/// Minimal canonical-port AXI-Stream DUT: a 1-cycle echo that truncates
/// 12-bit input lanes to the 9-bit output lanes, always ready, plus a
/// free-running counter register nothing consumes (dead state for
/// masked-fault cases).
Design mini_echo() {
  Design d("mini_echo");
  NodeId svalid = d.input("s_tvalid", 1);
  NodeId slast = d.input("s_tlast", 1);
  std::vector<NodeId> lanes;
  for (int c = 0; c < axis::kLanes; ++c)
    lanes.push_back(d.input(axis::lane_port("s", c), axis::kInElemWidth));
  d.input("m_tready", 1);
  d.output("s_tready", d.constant(1, 1));
  NodeId vreg = d.reg(1, 0, "v");
  d.set_reg_next(vreg, svalid);
  NodeId lreg = d.reg(1, 0, "l");
  d.set_reg_next(lreg, slast);
  for (int c = 0; c < axis::kLanes; ++c) {
    NodeId r = d.reg(axis::kOutElemWidth, 0, "d" + std::to_string(c));
    d.set_reg_next(r, d.slice(lanes[static_cast<size_t>(c)],
                              axis::kOutElemWidth - 1, 0));
    d.output(axis::lane_port("m", c), r);
  }
  d.output("m_tvalid", vreg);
  d.output("m_tlast", lreg);
  NodeId cnt = d.reg(8, 0, "spin");
  d.set_reg_next(cnt, d.add(cnt, d.constant(8, 1), 8));
  return d;
}

NodeId find_reg(const Design& d, const std::string& name) {
  for (size_t i = 0; i < d.node_count(); ++i) {
    const netlist::Node& n = d.node(static_cast<NodeId>(i));
    if (n.op == Op::Reg && n.name == name) return static_cast<NodeId>(i);
  }
  return netlist::kInvalidNode;
}

std::vector<std::string> site_keys(const std::vector<FaultSite>& sites) {
  std::vector<std::string> keys;
  for (const FaultSite& s : sites) keys.push_back(s.to_string());
  return keys;
}

// ---- fault model ----------------------------------------------------------

TEST(FaultModel, EnumerateRegSitesCoversEveryRegisterBit) {
  Design d = mini_echo();
  int reg_bits = 0;
  for (size_t i = 0; i < d.node_count(); ++i) {
    const netlist::Node& n = d.node(static_cast<NodeId>(i));
    if (n.op == Op::Reg) reg_bits += n.width;
  }
  auto sites = enumerate_reg_seu_sites(d, 3);
  EXPECT_EQ(static_cast<int>(sites.size()), reg_bits);
  for (const FaultSite& s : sites) {
    EXPECT_EQ(s.kind, FaultKind::kSeuReg);
    EXPECT_EQ(s.cycle, 3u);
    EXPECT_NO_THROW(validate_site(d, s));
  }
}

TEST(FaultModel, EnumerateMemSitesCoversEveryWordBit) {
  Design d("memstore");
  int mem = d.add_memory("buf", 8, 4);
  NodeId addr = d.input("addr", 2);
  NodeId data = d.input("data", 8);
  NodeId we = d.input("we", 1);
  d.mem_write(mem, addr, data, we);
  d.output("q", d.mem_read(mem, addr));
  auto sites = enumerate_mem_seu_sites(d, 0);
  EXPECT_EQ(sites.size(), 8u * 4u);
  for (const FaultSite& s : sites) EXPECT_NO_THROW(validate_site(d, s));
}

TEST(FaultModel, SamplingIsDeterministicInSeed) {
  Design d = rtl::build_verilog_opt2();
  auto a = sample_seu_sites(d, 64, 100, 7);
  auto b = sample_seu_sites(d, 64, 100, 7);
  auto c = sample_seu_sites(d, 64, 100, 8);
  EXPECT_EQ(site_keys(a), site_keys(b));
  EXPECT_NE(site_keys(a), site_keys(c));
  for (const FaultSite& s : a) EXPECT_NO_THROW(validate_site(d, s));
}

TEST(FaultModel, StuckSamplingValidatesAndAlternatesPolarity) {
  Design d = mini_echo();
  auto sites = sample_stuck_sites(d, 50, 11);
  ASSERT_EQ(sites.size(), 50u);
  bool saw0 = false, saw1 = false;
  for (const FaultSite& s : sites) {
    EXPECT_NO_THROW(validate_site(d, s));
    saw0 = saw0 || s.kind == FaultKind::kStuckAt0;
    saw1 = saw1 || s.kind == FaultKind::kStuckAt1;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

// ---- simulator hooks ------------------------------------------------------

TEST(Injection, FlipRegBitChangesStateUntilOverwritten) {
  Design d("hold");
  NodeId r = d.reg(8, 0, "r");
  NodeId en = d.input("en", 1);
  d.set_reg_next(r, d.constant(8, 0), en);
  d.output("q", r);
  sim::Simulator sim(d);
  sim.set_input("en", 0);
  sim.eval();
  EXPECT_EQ(sim.output_i64("q"), 0);
  sim.flip_reg_bit(r, 3);
  sim.eval();
  EXPECT_EQ(sim.output_i64("q"), 8);
  sim.step();  // enable low: the upset persists
  EXPECT_EQ(sim.output_i64("q"), 8);
  sim.set_input("en", 1);
  sim.step();  // overwritten by the next-value
  EXPECT_EQ(sim.output_i64("q"), 0);
}

TEST(Injection, CombinationalTransformAppliesAndDisarms) {
  Design d("wire");
  NodeId a = d.input("a", 8);
  NodeId o = d.output("o", a);
  sim::Simulator sim(d);
  sim.arm_fault(to_lane_fault({FaultKind::kStuckAt1, o, -1, 0, 6}));
  sim.set_input("a", 1);
  sim.eval();
  EXPECT_EQ(sim.output_i64("o"), 65);
  sim.disarm_fault();
  sim.eval();
  EXPECT_EQ(sim.output_i64("o"), 1);
}

// ---- campaign classification ---------------------------------------------

TEST(Campaign, ClassifiesMaskedSdcAndHang) {
  Design d = mini_echo();
  FaultSite masked{FaultKind::kSeuReg, find_reg(d, "spin"), -1, 0, 2, 1};
  FaultSite sdc{FaultKind::kSeuReg, find_reg(d, "d0"), -1, 0, 0, 1};
  FaultSite hang{FaultKind::kStuckAt0, d.find_output("m_tvalid"), -1, 0, 0, 0};
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  CampaignReport rep = run_campaign(d, {masked, sdc, hang}, opts);
  EXPECT_FALSE(rep.reference_functional);  // echo, not an IDCT
  EXPECT_EQ(rep.counts.masked, 1);
  EXPECT_EQ(rep.counts.sdc, 1);
  EXPECT_EQ(rep.counts.hang, 1);
  EXPECT_EQ(rep.counts.detected, 0);
  ASSERT_EQ(rep.runs.size(), 3u);
  EXPECT_EQ(rep.runs[0].outcome, Outcome::kMasked);
  EXPECT_EQ(rep.runs[1].outcome, Outcome::kSdc);
  EXPECT_EQ(rep.runs[2].outcome, Outcome::kHang);
  EXPECT_NEAR(rep.counts.vulnerability(), 2.0 / 3.0, 1e-9);
}

TEST(Campaign, ProgressCallbackSeesRunningOutcomeMix) {
  Design d = mini_echo();
  std::vector<FaultSite> sites;
  for (int i = 0; i < 5; ++i)
    sites.push_back(
        FaultSite{FaultKind::kSeuReg, find_reg(d, "spin"), -1, 0, 2, 1});
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  opts.progress_every = 2;
  // One lane completes sites in site order, so the snapshots below are
  // exact for this site sequence.
  opts.lanes = 1;
  std::vector<CampaignProgress> seen;
  opts.on_progress = [&](const CampaignProgress& p) { seen.push_back(p); };
  CampaignReport rep = run_campaign(d, sites, opts);

  // 5 sites at every-2 reporting: callbacks after sites 2 and 4.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].design_name, "mini_echo");
  EXPECT_EQ(seen[0].completed, 2);
  EXPECT_EQ(seen[0].total, 5);
  EXPECT_EQ(seen[0].counts.total(), 2);
  EXPECT_EQ(seen[1].completed, 4);
  EXPECT_EQ(seen[1].counts.masked, 4);  // spin upsets are always masked
  EXPECT_EQ(rep.counts.masked, 5);
}

TEST(Campaign, ProgressDisabledWithNonPositivePeriod) {
  Design d = mini_echo();
  std::vector<FaultSite> sites(
      3, FaultSite{FaultKind::kSeuReg, find_reg(d, "spin"), -1, 0, 2, 1});
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  opts.progress_every = 0;
  int calls = 0;
  opts.on_progress = [&](const CampaignProgress&) { ++calls; };
  run_campaign(d, sites, opts);
  EXPECT_EQ(calls, 0);
}

// A hostile on_progress callback must not be able to abort (or, under
// jobs > 1, deadlock) the campaign: the exception is caught, recorded once
// in progress_error, and the callback disarmed. Classification must be
// untouched — the counts match a clean run exactly.
TEST(Campaign, ThrowingProgressCallbackIsIsolated) {
  Design d = mini_echo();
  std::vector<FaultSite> sites(
      8, FaultSite{FaultKind::kSeuReg, find_reg(d, "spin"), -1, 0, 2, 1});
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  opts.progress_every = 1;  // every completed site would report

  CampaignReport clean = run_campaign(d, sites, opts);

  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    opts.jobs = jobs;
    std::atomic<int> calls{0};
    opts.on_progress = [&](const CampaignProgress&) {
      ++calls;
      throw std::runtime_error("progress observer exploded");
    };
    CampaignReport rep = run_campaign(d, sites, opts);

    // Disarmed after the first throw: invoked exactly once despite the
    // every-site cadence over 8 sites.
    EXPECT_EQ(calls.load(), 1);
    EXPECT_NE(rep.progress_error.find("progress observer exploded"),
              std::string::npos)
        << "progress_error: '" << rep.progress_error << '\'';
    EXPECT_EQ(rep.counts.masked, clean.counts.masked);
    EXPECT_EQ(rep.counts.sdc, clean.counts.sdc);
    EXPECT_EQ(rep.counts.detected, clean.counts.detected);
    EXPECT_EQ(rep.counts.hang, clean.counts.hang);
    ASSERT_EQ(rep.runs.size(), clean.runs.size());
    for (size_t i = 0; i < rep.runs.size(); ++i)
      EXPECT_EQ(rep.runs[i].outcome, clean.runs[i].outcome) << "site " << i;
  }
}

TEST(Campaign, WellBehavedCallbackReportsNoProgressError) {
  Design d = mini_echo();
  std::vector<FaultSite> sites(
      3, FaultSite{FaultKind::kSeuReg, find_reg(d, "spin"), -1, 0, 2, 1});
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  opts.progress_every = 1;
  opts.on_progress = [](const CampaignProgress&) {};
  EXPECT_TRUE(run_campaign(d, sites, opts).progress_error.empty());
}

TEST(Campaign, TransientGlitchOnDataPathIsSdcOrMasked) {
  Design d = mini_echo();
  // A glitch on an output lane during the transfer corrupts a captured beat.
  FaultSite glitch{FaultKind::kTransient, d.find_output("m_tdata0"), -1, 0, 0,
                   2};
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  CampaignReport rep = run_campaign(d, {glitch}, opts);
  EXPECT_EQ(rep.counts.sdc, 1);
}

TEST(Campaign, DetectorOutputTurnsSdcIntoDetected) {
  Design hardened = tmr(mini_echo(), {.with_detector = true});
  // Upset one copy's data register: the voter masks the corruption, but the
  // disagreement detector latches.
  NodeId victim = find_reg(hardened, "mini_echo.d0");
  ASSERT_NE(victim, netlist::kInvalidNode);
  FaultSite seu{FaultKind::kSeuReg, victim, -1, 0, 0, 1};
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  CampaignReport rep = run_campaign(hardened, {seu}, opts);
  EXPECT_EQ(rep.counts.detected, 1);
  EXPECT_EQ(rep.counts.sdc, 0);
}

// ---- hardening guarantees -------------------------------------------------

TEST(Harden, TmrMasksEverySingleRegisterUpset) {
  Design hardened = tmr(mini_echo());
  CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 500;
  std::vector<FaultSite> sites;
  for (uint64_t cycle : {0u, 1u, 2u, 5u})
    for (const FaultSite& s : enumerate_reg_seu_sites(hardened, cycle))
      sites.push_back(s);
  CampaignReport rep = run_campaign(hardened, sites, opts);
  EXPECT_EQ(rep.counts.sdc, 0);
  EXPECT_EQ(rep.counts.hang, 0);
  EXPECT_EQ(rep.counts.detected, 0);
  EXPECT_EQ(rep.counts.masked, rep.counts.total());
}

TEST(Harden, TmrVerilogOpt2NoSdcOnSampledRegisterSeu) {
  Design hardened = tmr(rtl::build_verilog_opt2());
  auto sites = sample_seu_sites(hardened, 40, 60, 2026);
  CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 5000;
  CampaignReport rep = run_campaign(hardened, sites, opts);
  EXPECT_TRUE(rep.reference_functional);  // still a bit-exact IDCT
  EXPECT_EQ(rep.counts.sdc, 0);
  EXPECT_EQ(rep.counts.hang, 0);
}

TEST(Harden, TmrIsPortCompatibleAndCostsRoughlyThreeArea) {
  Design base = rtl::build_verilog_opt2();
  Design hardened = tmr(base);
  for (NodeId i : base.inputs())
    EXPECT_NE(hardened.find_input(base.node(i).name), netlist::kInvalidNode);
  for (NodeId o : base.outputs())
    EXPECT_NE(hardened.find_output(base.node(o).name), netlist::kInvalidNode);
  long a = synth::synthesize_normalized(base).area();
  long a3 = synth::synthesize_normalized(hardened).area();
  EXPECT_GT(a3, 2 * a);  // three copies plus voters
}

TEST(Harden, ParityDetectsSingleMemoryBitFlip) {
  Design d("memstore");
  int mem = d.add_memory("buf", 8, 4);
  NodeId addr = d.input("addr", 2);
  NodeId data = d.input("data", 8);
  NodeId we = d.input("we", 1);
  d.mem_write(mem, addr, data, we);
  d.output("q", d.mem_read(mem, addr));
  Design protected_d = parity_protect(d);
  ASSERT_EQ(protected_d.memories().size(), 1u);
  EXPECT_EQ(protected_d.memories()[0].width, 9);  // +1 parity bit

  sim::Simulator sim(protected_d);
  sim.set_input("addr", 2);
  sim.set_input("data", 0x5A);
  sim.set_input("we", 1);
  sim.step();
  sim.set_input("we", 0);
  sim.step();
  EXPECT_EQ(sim.output("q").to_uint64(), 0x5Au);  // round-trips unchanged
  EXPECT_EQ(sim.output_i64("parity_err"), 0);

  sim.flip_mem_bit(0, 2, 3);  // SEU in the stored word
  sim.step();
  EXPECT_EQ(sim.output("parity_err").to_uint64(), 1u);  // seen on the read
  sim.set_input("addr", 0);
  sim.step();
  EXPECT_EQ(sim.output("parity_err").to_uint64(), 1u);  // sticky thereafter
}

TEST(Harden, ParityErrStaysLowWithoutFaults) {
  Design d("memstore");
  int mem = d.add_memory("buf", 16, 8);
  NodeId addr = d.input("addr", 3);
  NodeId data = d.input("data", 16);
  NodeId we = d.input("we", 1);
  d.mem_write(mem, addr, data, we);
  d.output("q", d.mem_read(mem, addr));
  Design protected_d = parity_protect(d);
  sim::Simulator sim(protected_d);
  for (int i = 0; i < 8; ++i) {
    sim.set_input("addr", i);
    sim.set_input("data", 1000 + 77 * i);
    sim.set_input("we", 1);
    sim.step();
  }
  sim.set_input("we", 0);
  for (int i = 0; i < 8; ++i) {
    sim.set_input("addr", i);
    sim.step();
    EXPECT_EQ(sim.output_i64("q"), 1000 + 77 * i);
    EXPECT_EQ(sim.output_i64("parity_err"), 0);
  }
}

// ---- resilience evaluation ------------------------------------------------

TEST(Resilience, EvaluateJoinsCampaignWithCostModel) {
  Design d = rtl::build_verilog_opt2();
  auto sites = sample_seu_sites(d, 12, 60, 5);
  CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 5000;
  DesignResilience r =
      evaluate_resilience(d, sites, synth::synthesize_normalized(d), opts);
  EXPECT_TRUE(r.campaign.reference_functional);
  EXPECT_EQ(r.campaign.counts.total(), 12);
  EXPECT_GT(r.fmax_mhz, 0.0);
  EXPECT_GT(r.area, 0);
  EXPECT_GT(r.throughput_mops, 0.0);
  EXPECT_GT(r.quality, 0.0);
  std::string table = resilience_table({r});
  EXPECT_NE(table.find("verilog"), std::string::npos);
  EXPECT_NE(table.find("VF"), std::string::npos);
}

}  // namespace
}  // namespace hlshc::fault
