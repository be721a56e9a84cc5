// Differential tests: the compiled engine against the interpreter oracle.
//
// The compiled engine (sim::CompiledSimulator, a one-lane BatchSimulator) must
// be observationally indistinguishable from the interpreter
// (sim::Simulator) — same node values every cycle, same cycle counts, same
// stream timing, same watchdog behaviour and same fault-campaign
// classifications. Three layers of evidence:
//
//   1. randomized netlists covering every op, fuzzed cycle by cycle with
//      every node value compared after every eval;
//   2. every registered AXI-Stream IDCT design run through the stream
//      testbench on both engines with seeded stimulus and randomized
//      source/sink timing;
//   3. fault campaigns (SEU + stuck-at): run_campaign against the
//      interpreter oracle (tests/oracle.hpp).
//
// Plus unit tests for the ExecPlan compilation itself (levelization,
// constant hoisting, per-design caching).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "bsv/designs.hpp"
#include "chisel/designs.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "hls/tool.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "rtl/designs.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "xls/designs.hpp"

namespace hlshc {
namespace {

using netlist::Design;
using netlist::NodeId;
using netlist::Op;

// ---- randomized netlist fuzzing --------------------------------------------

// random_design lives in testutil.hpp so the batched-engine differential
// suite (tests/batch_test.cpp) fuzzes the exact same design space.
using testutil::random_design;

void expect_all_nodes_equal(const sim::Simulator& oracle,
                            const sim::CompiledSimulator& compiled,
                            const Design& d, uint64_t seed, int cycle) {
  for (size_t i = 0; i < d.node_count(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    ASSERT_EQ(oracle.value(id), compiled.value(id))
        << "seed " << seed << " cycle " << cycle << " node " << id << " ("
        << netlist::op_name(d.node(id).op) << " w=" << d.node(id).width
        << ')';
  }
}

class RandomNetlistDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetlistDiff, EveryNodeEveryCycleBitExact) {
  const uint64_t seed = GetParam();
  Design d = random_design(seed);
  sim::Simulator oracle(d);
  sim::CompiledSimulator compiled(d);
  SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ull);

  std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());
  for (int cycle = 0; cycle < 24; ++cycle) {
    for (NodeId in : ins) {
      int64_t v = static_cast<int64_t>(rng.next());
      oracle.poke(in, v);
      compiled.poke(in, v);
    }
    oracle.eval();
    compiled.eval();
    expect_all_nodes_equal(oracle, compiled, d, seed, cycle);
    oracle.step();
    compiled.step();
    ASSERT_EQ(oracle.cycle(), compiled.cycle());
  }

  // Mid-run reset must restore both engines to the same state.
  oracle.reset();
  compiled.reset();
  oracle.eval();
  compiled.eval();
  expect_all_nodes_equal(oracle, compiled, d, seed, -1);
}

TEST_P(RandomNetlistDiff, SeuPokesAgree) {
  const uint64_t seed = GetParam();
  Design d = random_design(seed);
  sim::Simulator oracle(d);
  sim::CompiledSimulator compiled(d);
  SplitMix64 rng(seed + 7);

  std::vector<NodeId> regs;
  for (size_t i = 0; i < d.node_count(); ++i)
    if (d.node(static_cast<NodeId>(i)).op == Op::Reg)
      regs.push_back(static_cast<NodeId>(i));
  ASSERT_FALSE(regs.empty());

  for (int round = 0; round < 8; ++round) {
    NodeId r = regs[rng.next_in(0, static_cast<long>(regs.size()) - 1)];
    int bit = static_cast<int>(rng.next_in(0, d.node(r).width - 1));
    oracle.flip_reg_bit(r, bit);
    compiled.flip_reg_bit(r, bit);
    int addr = static_cast<int>(rng.next_in(0, 7));
    int mbit =
        static_cast<int>(rng.next_in(0, d.memories()[0].width - 1));
    oracle.flip_mem_bit(0, addr, mbit);
    compiled.flip_mem_bit(0, addr, mbit);
    oracle.step();
    compiled.step();
    expect_all_nodes_equal(oracle, compiled, d, seed, round);
    for (int a = 0; a < 8; ++a)
      ASSERT_EQ(oracle.mem_peek(0, a), compiled.mem_peek(0, a))
          << "seed " << seed << " addr " << a;
  }
}

TEST_P(RandomNetlistDiff, CombinationalInjectionAndDisarmAgree) {
  const uint64_t seed = GetParam();
  Design d = random_design(seed);
  sim::Simulator oracle(d);
  sim::CompiledSimulator compiled(d);
  SplitMix64 rng(seed * 31 + 5);
  std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());

  auto drive_and_compare = [&](int cycles, int tag) {
    for (int c = 0; c < cycles; ++c) {
      for (NodeId in : ins) {
        int64_t v = static_cast<int64_t>(rng.next());
        oracle.poke(in, v);
        compiled.poke(in, v);
      }
      oracle.step();
      compiled.step();
      expect_all_nodes_equal(oracle, compiled, d, seed, tag * 100 + c);
    }
  };

  for (int round = 0; round < 4; ++round) {
    // Any node but MemWrite is a fair target — inputs and consts included.
    NodeId target;
    do {
      target = static_cast<NodeId>(
          rng.next_in(0, static_cast<long>(d.node_count()) - 1));
    } while (d.node(target).op == Op::MemWrite);
    // Stuck-at on an arbitrary node (inputs and hoisted constants too).
    sim::LaneFault stuck;
    stuck.kind = rng.next_in(0, 1) != 0 ? sim::LaneFault::Kind::kStuck1
                                         : sim::LaneFault::Kind::kStuck0;
    stuck.node = target;
    stuck.bit = static_cast<int>(rng.next_in(0, d.node(target).width - 1));
    oracle.arm_fault(stuck);
    compiled.arm_fault(stuck);
    drive_and_compare(6, round * 2);
    // Disarm: both engines must heal identically (hoisted constants!).
    oracle.disarm_fault();
    compiled.disarm_fault();
    drive_and_compare(4, round * 2 + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistDiff,
                         ::testing::Range<uint64_t>(0, 40));

// ---- watchdog parity -------------------------------------------------------

TEST(EngineDiff, WatchdogFiresIdenticallyOnBothEngines) {
  Design d = random_design(3);
  for (sim::EngineKind kind :
       {sim::EngineKind::kInterpreter, sim::EngineKind::kCompiled}) {
    std::unique_ptr<sim::Engine> e = sim::make_engine(d, kind);
    e->set_cycle_budget(5);
    try {
      e->run(100);
      FAIL() << "watchdog did not fire on " << e->kind_name();
    } catch (const sim::SimTimeout& t) {
      EXPECT_EQ(t.cycles(), 5u) << e->kind_name();
    }
    EXPECT_EQ(e->cycle(), 5u) << e->kind_name();
  }
}

// ---- every registered IDCT design ------------------------------------------

struct FamilyCase {
  const char* label;
  std::function<Design()> build;
};

std::vector<FamilyCase> axis_families() {
  return {
      {"verilog_initial", [] { return rtl::build_verilog_initial(); }},
      {"verilog_opt1", [] { return rtl::build_verilog_opt1(); }},
      {"verilog_opt2", [] { return rtl::build_verilog_opt2(); }},
      {"chisel_initial", [] { return chisel::build_chisel_initial(); }},
      {"chisel_opt", [] { return chisel::build_chisel_opt(); }},
      {"bsv_initial", [] { return bsv::build_bsv_initial(); }},
      {"bsv_opt", [] { return bsv::build_bsv_opt(); }},
      {"xls_comb", [] { return xls::build_xls_design({0}).design; }},
      {"xls_p8", [] { return xls::build_xls_design({8}).design; }},
      {"bambu",
       [] { return hls::compile_bambu(hls::idct_source(), {}).design; }},
      {"vhls_opt",
       [] {
         hls::VhlsOptions o;
         o.pragmas = true;
         return hls::compile_vhls(hls::idct_source(), o).design;
       }},
  };
}

struct StreamRun {
  std::vector<idct::Block> outs;
  uint64_t total_cycles = 0;
  int latency = 0;
  double periodicity = 0.0;
};

StreamRun stream_run(const Design& d, sim::EngineKind kind,
                     const std::vector<idct::Block>& ins, int gap, int stall,
                     int period) {
  std::unique_ptr<sim::Engine> e = sim::make_engine(d, kind);
  axis::StreamTestbench tb(*e);
  tb.source().set_gap_cycles(gap);
  if (period) tb.sink().set_backpressure(stall, period);
  StreamRun r;
  r.outs = tb.run(ins, 500000);
  r.total_cycles = tb.timing().total_cycles;
  r.latency = tb.timing().latency_cycles;
  r.periodicity = tb.timing().periodicity_cycles;
  return r;
}

class EveryFamilyDiff : public ::testing::TestWithParam<size_t> {};

TEST_P(EveryFamilyDiff, EnginesAgreeOnOutputsAndTiming) {
  FamilyCase fc = axis_families()[GetParam()];
  Design d = fc.build();
  SplitMix64 rng(20260806);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 4; ++i)
    ins.push_back(testutil::realistic_coeff_block(rng));

  struct Timing {
    int gap, stall, period;
  };
  for (Timing t : {Timing{0, 0, 0}, Timing{1, 1, 3}}) {
    StreamRun oracle =
        stream_run(d, sim::EngineKind::kInterpreter, ins, t.gap, t.stall,
                   t.period);
    StreamRun compiled =
        stream_run(d, sim::EngineKind::kCompiled, ins, t.gap, t.stall,
                   t.period);
    ASSERT_EQ(oracle.outs, compiled.outs)
        << fc.label << " gap=" << t.gap << " stall=" << t.stall;
    EXPECT_EQ(oracle.total_cycles, compiled.total_cycles) << fc.label;
    EXPECT_EQ(oracle.latency, compiled.latency) << fc.label;
    EXPECT_EQ(oracle.periodicity, compiled.periodicity) << fc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, EveryFamilyDiff, ::testing::Range<size_t>(0, 11),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return axis_families()[info.param].label;
    });

// ---- fault-campaign classification parity ----------------------------------

TEST(EngineDiff, FaultCampaignClassificationsIdentical) {
  Design d = rtl::build_verilog_initial();
  std::vector<fault::FaultSite> sites = fault::sample_seu_sites(d, 6, 200, 11);
  std::vector<fault::FaultSite> stuck = fault::sample_stuck_sites(d, 6, 12);
  sites.insert(sites.end(), stuck.begin(), stuck.end());

  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  fault::CampaignOptions opt;
  opt.matrices = 2;
  opt.progress_every = 0;
  const testutil::OracleCampaign oracle =
      testutil::oracle_campaign(d, spec, sites, opt);
  fault::CampaignReport compiled = fault::run_campaign(d, spec, sites, opt);

  EXPECT_EQ(oracle.counts.masked, compiled.counts.masked);
  EXPECT_EQ(oracle.counts.sdc, compiled.counts.sdc);
  EXPECT_EQ(oracle.counts.detected, compiled.counts.detected);
  EXPECT_EQ(oracle.counts.hang, compiled.counts.hang);
  ASSERT_EQ(oracle.outcomes.size(), compiled.runs.size());
  for (size_t i = 0; i < oracle.outcomes.size(); ++i)
    EXPECT_EQ(oracle.outcomes[i], compiled.runs[i].outcome) << "site " << i;
}

// ---- activity-counter parity -----------------------------------------------

void expect_profiles_equal(const sim::ActivityProfile& a,
                           const sim::ActivityProfile& b,
                           const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  ASSERT_EQ(a.toggles.size(), b.toggles.size()) << label;
  for (size_t i = 0; i < a.toggles.size(); ++i) {
    EXPECT_EQ(a.toggles[i], b.toggles[i]) << label << " toggles node " << i;
    EXPECT_EQ(a.reg_writes[i], b.reg_writes[i])
        << label << " reg_writes node " << i;
  }
  ASSERT_EQ(a.mem_reads.size(), b.mem_reads.size()) << label;
  for (size_t m = 0; m < a.mem_reads.size(); ++m) {
    EXPECT_EQ(a.mem_reads[m], b.mem_reads[m]) << label << " mem_reads " << m;
    EXPECT_EQ(a.mem_writes[m], b.mem_writes[m])
        << label << " mem_writes " << m;
  }
}

TEST_P(RandomNetlistDiff, ActivityCountersAgree) {
  const uint64_t seed = GetParam();
  Design d = random_design(seed);
  sim::Simulator oracle(d);
  sim::CompiledSimulator compiled(d);
  oracle.set_activity_enabled(true);
  compiled.set_activity_enabled(true);
  SplitMix64 rng(seed ^ 0xa5a5a5a5ull);

  std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());
  for (int cycle = 0; cycle < 24; ++cycle) {
    for (NodeId in : ins) {
      int64_t v = static_cast<int64_t>(rng.next());
      oracle.poke(in, v);
      compiled.poke(in, v);
    }
    oracle.step();
    compiled.step();
  }
  EXPECT_EQ(oracle.activity().cycles, 24u);
  expect_profiles_equal(oracle.activity(), compiled.activity(),
                        d.name().c_str());
}

TEST(EngineDiff, ActivityParityOnStreamedIdctDesigns) {
  SplitMix64 rng(20260806);
  std::vector<idct::Block> ins;
  for (int i = 0; i < 2; ++i)
    ins.push_back(testutil::realistic_coeff_block(rng));

  for (const char* label :
       {"verilog_opt2", "chisel_opt", "bsv_opt", "xls_p8"}) {
    Design d = [&] {
      for (const FamilyCase& fc : axis_families())
        if (std::string(fc.label) == label) return fc.build();
      ADD_FAILURE() << "unknown family " << label;
      return rtl::build_verilog_opt2();
    }();
    std::unique_ptr<sim::Engine> oracle =
        sim::make_engine(d, sim::EngineKind::kInterpreter);
    std::unique_ptr<sim::Engine> compiled =
        sim::make_engine(d, sim::EngineKind::kCompiled);
    for (sim::Engine* e : {oracle.get(), compiled.get()}) {
      e->set_activity_enabled(true);
      axis::StreamTestbench tb(*e);
      tb.run(ins, 500000);
    }
    expect_profiles_equal(oracle->activity(), compiled->activity(), label);

    // The profile must show real work: toggles somewhere, and every design
    // in the sweep latches registers.
    const sim::ActivityProfile& p = compiled->activity();
    uint64_t toggles = std::accumulate(p.toggles.begin(), p.toggles.end(),
                                       uint64_t{0});
    uint64_t latches = std::accumulate(p.reg_writes.begin(),
                                       p.reg_writes.end(), uint64_t{0});
    EXPECT_GT(toggles, 0u) << label;
    EXPECT_GT(latches, 0u) << label;
  }
}

TEST(EngineDiff, ActivityDisableFreezesAndReenableZeroes) {
  Design d = rtl::build_verilog_opt2();
  std::unique_ptr<sim::Engine> e = sim::make_engine(d);
  e->set_activity_enabled(true);
  e->set_input("s_tvalid", 1);
  e->set_input("m_tready", 1);
  e->set_input(axis::lane_port("s", 0), 123);
  e->run(32);
  const sim::ActivityProfile& p = e->activity();
  EXPECT_EQ(p.cycles, 32u);
  uint64_t toggles =
      std::accumulate(p.toggles.begin(), p.toggles.end(), uint64_t{0});
  EXPECT_GT(toggles, 0u);

  // Disabling freezes the counts for inspection...
  e->set_activity_enabled(false);
  e->run(16);
  EXPECT_EQ(e->activity().cycles, 32u);

  // ...and re-enabling starts a fresh accumulation.
  e->set_activity_enabled(true);
  EXPECT_EQ(e->activity().cycles, 0u);
  e->run(4);
  EXPECT_EQ(e->activity().cycles, 4u);
}

/// The zero-overhead-when-disabled contract, behaviourally: with obs
/// disabled and no profiling armed, a run must leave no trace in the global
/// registry; and the instrumented-but-disabled engine must not be slower
/// than the same engine with activity profiling actually on. The timing
/// bound is deliberately loose (1.5x) — it catches "someone made the
/// disabled path do per-node work", not micro-regressions.
TEST(EngineDiff, DisabledInstrumentationHasNoSideEffectsAndBoundedCost) {
  Design d = rtl::build_verilog_opt2();
  const int64_t cycles = 20000;

  auto timed_run = [&](bool profile) {
    std::unique_ptr<sim::Engine> e = sim::make_engine(d);
    e->set_activity_enabled(profile);
    e->set_input("s_tvalid", 1);
    e->set_input("m_tready", 1);
    auto t0 = std::chrono::steady_clock::now();
    e->run(cycles);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  obs::set_enabled(false);
  obs::registry().reset();
  double off = timed_run(false);
  EXPECT_EQ(obs::registry().to_json().dump(),
            "{\"counters\":{},\"gauges\":{},\"timers\":{}}");

  double on = timed_run(true);
  EXPECT_LT(off, on * 1.5)
      << "disabled engine took " << off << "s vs " << on
      << "s with activity profiling on";
}

// ---- ExecPlan compilation --------------------------------------------------

TEST(ExecPlan, StreamIsLevelizedAndRespectsDependencies) {
  Design d = rtl::build_verilog_opt2();
  auto plan = netlist::ExecPlan::for_design(d);

  std::vector<int> pos(d.node_count(), -1);
  int k = 0;
  for (const netlist::ExecInstr& in : plan->instrs())
    pos[static_cast<size_t>(in.dst)] = k++;

  for (const netlist::ExecInstr& in : plan->instrs()) {
    if (in.op == Op::Reg) continue;  // reads state, not the stream
    for (NodeId o : d.node(in.dst).operands) {
      Op oop = d.node(o).op;
      if (oop == Op::Input || oop == Op::Const) continue;  // sources
      if (oop == Op::Reg) continue;  // level 0, ordered first anyway
      ASSERT_LT(pos[static_cast<size_t>(o)],
                pos[static_cast<size_t>(in.dst)])
          << "operand " << o << " of node " << in.dst
          << " executes after its user";
    }
  }
}

TEST(ExecPlan, ConstantsAndInputsHoistedOutOfStream) {
  Design d = rtl::build_verilog_initial();
  auto plan = netlist::ExecPlan::for_design(d);
  for (const netlist::ExecInstr& in : plan->instrs()) {
    EXPECT_NE(in.op, Op::Const);
    EXPECT_NE(in.op, Op::Input);
  }
  size_t n_const = 0;
  for (size_t i = 0; i < d.node_count(); ++i)
    if (d.node(static_cast<NodeId>(i)).op == Op::Const) ++n_const;
  EXPECT_EQ(plan->const_instrs().size(), n_const);
}

TEST(ExecPlan, LevelStartsPartitionTheStream) {
  Design d = rtl::build_verilog_opt1();
  auto plan = netlist::ExecPlan::for_design(d);
  const auto& starts = plan->level_starts();
  ASSERT_GE(starts.size(), 2u);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), plan->instrs().size());
  for (size_t l = 1; l < starts.size(); ++l)
    EXPECT_LE(starts[l - 1], starts[l]);
  EXPECT_GE(plan->depth(), 1);
}

TEST(ExecPlan, CachedPerDesignAndInvalidatedOnMutation) {
  Design d = rtl::build_verilog_initial();
  auto p1 = netlist::ExecPlan::for_design(d);
  auto p2 = netlist::ExecPlan::for_design(d);
  EXPECT_EQ(p1.get(), p2.get()) << "plan not reused";

  // A design copy shares the already-compiled plan.
  Design copy = d;
  auto p3 = netlist::ExecPlan::for_design(copy);
  EXPECT_EQ(p1.get(), p3.get()) << "copy recompiled the plan";

  // Mutation drops the cache; the old handle stays valid.
  d.output("extra", d.constant(1, 0));
  auto p4 = netlist::ExecPlan::for_design(d);
  EXPECT_NE(p1.get(), p4.get()) << "stale plan served after mutation";
  EXPECT_EQ(p4->slot_count(), d.node_count());
}

TEST(ExecPlan, TopoOrderCachedUntilMutation) {
  Design d = rtl::build_verilog_initial();
  const std::vector<NodeId>* o1 = &d.topo_order();
  const std::vector<NodeId>* o2 = &d.topo_order();
  EXPECT_EQ(o1, o2) << "topo order recomputed";
  auto shared = d.topo_order_shared();
  EXPECT_EQ(shared.get(), o1);

  // Mutation recomputes; `shared` keeps the old vector alive, so the new
  // allocation is necessarily a different object.
  d.output("extra2", d.constant(1, 0));
  const std::vector<NodeId>* o3 = &d.topo_order();
  EXPECT_NE(o3, shared.get()) << "stale topo order served after mutation";
  EXPECT_EQ(o3->size(), d.node_count());
}

}  // namespace
}  // namespace hlshc
