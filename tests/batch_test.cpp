// Differential tests: the lane-batched engine against the interpreter.
//
// sim::BatchSimulator packs N independent runs into one instruction-stream
// sweep; its contract is that every lane's trajectory is bitwise-identical
// to the same run on the interpreter oracle, sim::Simulator. Layers of
// evidence:
//
//   1. randomized netlists (the same testutil::random_design space the
//      compiled-vs-interpreter suite fuzzes) driven with per-lane stimulus,
//      every node of every lane compared against the interpreter after
//      every eval, at several lane counts;
//   2. per-lane fault injection (every LaneFault kind, including input and
//      hoisted-const targets) against the interpreter armed with the same
//      LaneFault, plus disarm/heal parity;
//   3. lane retirement: surviving lanes keep their exact trajectories
//      while columns compact away, and reset_all() revives the batch;
//   4. fault campaigns classified at several {lanes, jobs} combinations,
//      counts AND the per-run log bitwise identical to the interpreter
//      oracle (tests/oracle.hpp), for every registered workload;
//   5. concurrent ExecPlan::for_design first use (the TSan target) and the
//      batch utilization counters.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "rtl/designs.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "workload/workload.hpp"

namespace hlshc {
namespace {

using netlist::Design;
using netlist::NodeId;
using netlist::Op;
using testutil::random_design;

void expect_lane_equals_scalar(const sim::BatchSimulator& batch, int lane,
                               const sim::Simulator& scalar,
                               const Design& d, uint64_t seed, int cycle) {
  for (size_t i = 0; i < d.node_count(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    ASSERT_EQ(batch.value(lane, id), scalar.value(id))
        << "seed " << seed << " cycle " << cycle << " lane " << lane
        << " node " << id << " (" << netlist::op_name(d.node(id).op)
        << " w=" << d.node(id).width << ')';
  }
}

// ---- 1. every node, every cycle, every lane --------------------------------

class RandomNetlistBatchDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetlistBatchDiff, EveryLaneMatchesScalarEveryCycle) {
  const uint64_t seed = GetParam();
  const Design d = random_design(seed);
  const std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());

  // 3 exercises the generic kernel, 4 and 8 the fixed-trip specializations.
  for (int lanes : {3, 4, 8}) {
    sim::BatchSimulator batch(d, lanes);
    std::vector<std::unique_ptr<sim::Simulator>> scalars;
    std::vector<SplitMix64> rngs;
    for (int l = 0; l < lanes; ++l) {
      scalars.push_back(std::make_unique<sim::Simulator>(d));
      rngs.emplace_back(seed * 64 + static_cast<uint64_t>(l));
    }

    for (int cycle = 0; cycle < 16; ++cycle) {
      for (int l = 0; l < lanes; ++l) {
        for (NodeId in : ins) {
          const int64_t v = static_cast<int64_t>(rngs[l].next());
          batch.poke_input(l, in, v);
          scalars[l]->poke(in, v);
        }
      }
      batch.eval_all();
      for (int l = 0; l < lanes; ++l) {
        scalars[l]->eval();
        expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, cycle);
      }
      batch.step_all();
      for (int l = 0; l < lanes; ++l) scalars[l]->step();
      ASSERT_EQ(batch.cycle(), scalars[0]->cycle());
    }

    // Mid-run reset must restore every lane to the scalar reset state.
    batch.reset_all();
    batch.eval_all();
    for (int l = 0; l < lanes; ++l) {
      scalars[l]->reset();
      scalars[l]->eval();
      expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, -1);
    }
  }
}

// ---- 2. per-lane fault injection -------------------------------------------

/// First node of the given op kind with width > `bit`, or kInvalidNode.
NodeId find_node(const Design& d, Op op, int bit) {
  for (size_t i = 0; i < d.node_count(); ++i) {
    const netlist::Node& n = d.node(static_cast<NodeId>(i));
    if (n.op == op && n.width > bit) return static_cast<NodeId>(i);
  }
  return netlist::kInvalidNode;
}

class RandomNetlistLaneFaults : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetlistLaneFaults, EveryLaneFaultKindMatchesScalarInjector) {
  const uint64_t seed = GetParam();
  const Design d = random_design(seed);
  const std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());

  // One fault per lane, covering every kind plus input/const stuck-at
  // targets (the slots the fast stream never rewrites) and one clean lane.
  std::vector<fault::FaultSite> sites;
  {
    fault::FaultSite s;
    s.kind = fault::FaultKind::kSeuReg;
    s.node = find_node(d, Op::Reg, 0);
    s.cycle = 3;
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kSeuMem;
    s.mem = 0;
    s.addr = 2;
    s.bit = d.memories()[0].width - 1;
    s.cycle = 0;  // cycle-0 SEU: fires inside reset
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kStuckAt0;
    s.node = d.outputs()[0];
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kStuckAt1;
    s.node = find_node(d, Op::Input, 0);
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kTransient;
    s.node = find_node(d, Op::Const, 0);
    s.cycle = 5;
    sites.push_back(s);
  }

  const int lanes = static_cast<int>(sites.size()) + 1;  // +1 fault-free
  sim::BatchSimulator batch(d, lanes);
  std::vector<std::unique_ptr<sim::Simulator>> scalars;
  for (int l = 0; l < lanes; ++l) {
    scalars.push_back(std::make_unique<sim::Simulator>(d));
    if (l < static_cast<int>(sites.size())) {
      if (sites[l].node == netlist::kInvalidNode &&
          sites[l].kind != fault::FaultKind::kSeuMem)
        continue;  // design has no node of that kind; lane stays clean
      batch.arm_lane_fault(l, fault::to_lane_fault(sites[l]));
      scalars[l]->arm_fault(fault::to_lane_fault(sites[l]));
    }
  }
  batch.reset_all();
  for (auto& s : scalars) s->reset();

  SplitMix64 rng(seed ^ 0xabcdefull);
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (NodeId in : ins) {
      const int64_t v = static_cast<int64_t>(rng.next());
      for (int l = 0; l < lanes; ++l) {
        batch.poke_input(l, in, v);
        scalars[l]->poke(in, v);
      }
    }
    batch.eval_all();
    for (int l = 0; l < lanes; ++l) {
      scalars[l]->eval();
      expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, cycle);
    }
    batch.step_all();
    for (auto& s : scalars) s->step();
  }

  // Disarm heals every lane — including the const slot the transient
  // rewrote — back to the fault-free trajectory.
  for (int l = 0; l < lanes; ++l) {
    batch.disarm_lane_fault(l);
    scalars[l]->disarm_fault();
  }
  batch.eval_all();
  for (int l = 0; l < lanes; ++l) {
    scalars[l]->eval();
    expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, 999);
  }
}

// ---- 3. lane retirement ----------------------------------------------------

TEST(BatchRetirement, SurvivorsKeepExactTrajectoriesAcrossCompaction) {
  const uint64_t seed = 11;
  const Design d = random_design(seed);
  const std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());
  const int lanes = 8;

  sim::BatchSimulator batch(d, lanes);
  std::vector<std::unique_ptr<sim::Simulator>> scalars;
  std::vector<SplitMix64> rngs;
  for (int l = 0; l < lanes; ++l) {
    scalars.push_back(std::make_unique<sim::Simulator>(d));
    rngs.emplace_back(seed + static_cast<uint64_t>(l) * 1337);
  }

  // Retire lanes one by one (crossing the deferred-compaction thresholds
  // at 4, 2 and 1 live lanes); survivors must stay bit-exact throughout.
  const int retire_order[] = {2, 5, 0, 7, 3, 6, 1};
  std::vector<bool> dead(static_cast<size_t>(lanes), false);
  int retired = 0;
  for (int cycle = 0; cycle < 24; ++cycle) {
    if (cycle > 0 && cycle % 3 == 0 && retired < 7) {
      const int victim = retire_order[retired++];
      batch.retire_lane(victim);
      dead[static_cast<size_t>(victim)] = true;
      EXPECT_TRUE(batch.lane_retired(victim));
      EXPECT_EQ(batch.active_lanes(), lanes - retired);
    }
    for (int l = 0; l < lanes; ++l) {
      if (dead[static_cast<size_t>(l)]) continue;
      for (NodeId in : ins) {
        const int64_t v = static_cast<int64_t>(rngs[l].next());
        batch.poke_input(l, in, v);
        scalars[l]->poke(in, v);
      }
    }
    batch.eval_all();
    for (int l = 0; l < lanes; ++l) {
      if (dead[static_cast<size_t>(l)]) continue;
      scalars[l]->eval();
      expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, cycle);
    }
    batch.step_all();
    for (int l = 0; l < lanes; ++l)
      if (!dead[static_cast<size_t>(l)]) scalars[l]->step();
  }
  EXPECT_EQ(batch.active_lanes(), 1);

  // reset_all revives every lane at the scalar reset state.
  batch.reset_all();
  EXPECT_EQ(batch.active_lanes(), lanes);
  batch.eval_all();
  scalars[0]->reset();
  scalars[0]->eval();
  for (int l = 0; l < lanes; ++l) {
    EXPECT_FALSE(batch.lane_retired(l));
    expect_lane_equals_scalar(batch, l, *scalars[0], d, seed, -1);
  }
}

// ---- 4. campaign classification parity -------------------------------------

fault::CampaignReport campaign_at(const Design& d,
                                  const workload::WorkloadSpec& spec,
                                  const std::vector<fault::FaultSite>& sites,
                                  int lanes, int jobs) {
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 20000;
  opts.keep_runs = true;
  opts.progress_every = 0;
  opts.lanes = lanes;
  opts.jobs = jobs;
  return fault::run_campaign(d, spec, sites, opts);
}

void expect_matches_oracle(const testutil::OracleCampaign& oracle,
                           const fault::CampaignReport& got,
                           const std::vector<fault::FaultSite>& sites,
                           const std::string& what) {
  EXPECT_EQ(oracle.counts.masked, got.counts.masked) << what;
  EXPECT_EQ(oracle.counts.sdc, got.counts.sdc) << what;
  EXPECT_EQ(oracle.counts.protocol, got.counts.protocol) << what;
  EXPECT_EQ(oracle.counts.detected, got.counts.detected) << what;
  EXPECT_EQ(oracle.counts.hang, got.counts.hang) << what;
  ASSERT_EQ(got.runs.size(), sites.size()) << what;
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(oracle.outcomes[i], got.runs[i].outcome)
        << what << " site " << i << " (" << sites[i].to_string() << ')';
    EXPECT_EQ(got.runs[i].site.to_string(), sites[i].to_string())
        << what << " site " << i;
  }
}

fault::CampaignOptions oracle_options() {
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 20000;
  return opts;
}

TEST(BatchCampaign, BitwiseIdenticalAcrossLanesAndJobs) {
  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  // SEU and stuck-at sites: the latter exercise the segmented injected
  // stream, the former the plain stream + per-lane flip schedule.
  std::vector<fault::FaultSite> sites = fault::sample_seu_sites(d, 24, 60, 9);
  for (const fault::FaultSite& s : fault::sample_stuck_sites(d, 12, 10))
    sites.push_back(s);

  const testutil::OracleCampaign oracle =
      testutil::oracle_campaign(d, spec, sites, oracle_options());
  for (int lanes : {1, 4, 32}) {
    for (int jobs : {1, 2, 4}) {
      expect_matches_oracle(oracle, campaign_at(d, spec, sites, lanes, jobs),
                            sites,
                            "lanes=" + std::to_string(lanes) +
                                " jobs=" + std::to_string(jobs));
    }
  }
}

TEST(BatchCampaign, RefillingStreamMatchesScalarOnHangHeavySites) {
  // Hang sites are where the streaming refill earns its keep: a lane that
  // runs to its cycle budget frees up late, and the refill logic must slot
  // fresh sites into the other lanes without perturbing anyone's clock.
  // A tight cycle budget turns a good fraction of stuck-at sites into
  // hangs; the streamed paths must classify every site exactly as the
  // interpreter oracle does, with one worker and with two sharing the
  // site cursor.
  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  std::vector<fault::FaultSite> sites = fault::sample_stuck_sites(d, 24, 11);
  for (const fault::FaultSite& s : fault::sample_seu_sites(d, 8, 60, 5))
    sites.push_back(s);

  fault::CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 300;  // tight enough that stalled streams hit the budget
  opts.keep_runs = true;
  opts.progress_every = 0;
  const testutil::OracleCampaign oracle =
      testutil::oracle_campaign(d, spec, sites, opts);
  ASSERT_GE(oracle.counts.hang, 1) << "budget too generous: no hang sites";
  ASSERT_LT(oracle.counts.hang, static_cast<int>(sites.size()))
      << "budget too tight: every site hangs";

  opts.lanes = 8;
  for (int jobs : {1, 2}) {
    opts.jobs = jobs;
    expect_matches_oracle(oracle, fault::run_campaign(d, spec, sites, opts),
                          sites, "hang-heavy lanes=8 jobs=" +
                                     std::to_string(jobs));
  }
}

TEST(BatchCampaign, TlastMovingSiteIsSdcOnEveryPath) {
  // A fault that moves TLAST closes frames after the wrong number of beats.
  // That is the design's output going wrong, not a harness error: the run
  // classifies as SDC with the protocol sub-count, identically on the
  // interpreter oracle and at every {lanes, jobs}.
  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  fault::FaultSite tlast;
  tlast.kind = fault::FaultKind::kStuckAt1;
  tlast.node = d.find_output("m_tlast");
  std::vector<fault::FaultSite> sites = {tlast};
  for (const fault::FaultSite& s : fault::sample_seu_sites(d, 5, 60, 3))
    sites.push_back(s);

  const testutil::OracleCampaign oracle =
      testutil::oracle_campaign(d, spec, sites, oracle_options());
  EXPECT_EQ(oracle.outcomes[0], fault::Outcome::kSdc);
  EXPECT_GE(oracle.counts.protocol, 1);
  for (int lanes : {1, 32}) {
    for (int jobs : {1, 2}) {
      expect_matches_oracle(oracle, campaign_at(d, spec, sites, lanes, jobs),
                            sites,
                            "tlast lanes=" + std::to_string(lanes) +
                                " jobs=" + std::to_string(jobs));
    }
  }
}

TEST(BatchCampaign, EveryRegisteredWorkloadClassifiesIdentically) {
  const workload::Registry& reg = workload::Registry::instance();
  for (const std::string& name : reg.names()) {
    const workload::WorkloadSpec& spec = reg.get(name);
    // The cheapest tier-1 builder keeps the sweep unit-fast.
    const workload::BuilderInfo* builder = nullptr;
    for (const workload::BuilderInfo& b : spec.builders)
      if (!b.slow) { builder = &b; break; }
    ASSERT_NE(builder, nullptr) << name;
    const Design d = builder->build();
    const std::vector<fault::FaultSite> sites =
        fault::sample_seu_sites(d, 12, 40, 3);
    expect_matches_oracle(
        testutil::oracle_campaign(d, spec, sites, oracle_options()),
        campaign_at(d, spec, sites, 8, 1), sites, name + "/" + builder->name);
  }
}

// ---- 5. shared-plan thread safety and utilization counters -----------------

TEST(BatchInfra, ExecPlanConcurrentFirstUseYieldsOneSharedPlan) {
  // Fresh design each run: the first for_design() call races 8 threads
  // into the per-design cache. Run under TSan (the CI tsan job builds this
  // test) this pins the compile-once lock discipline.
  const Design d = random_design(0xbeef);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const netlist::ExecPlan>> plans(kThreads);
  std::atomic<int> barrier{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {}
      plans[static_cast<size_t>(t)] = netlist::ExecPlan::for_design(d);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(plans[static_cast<size_t>(t)], nullptr);
    EXPECT_EQ(plans[static_cast<size_t>(t)].get(), plans[0].get())
        << "thread " << t << " compiled a duplicate plan";
  }
  EXPECT_GT(plans[0]->depth(), 0);
}

TEST(BatchInfra, UtilizationCountersTrackSweepsAndLanes) {
  obs::set_enabled(true);
  obs::registry().counter("sim.batch.sweeps")->add(0);
  const int64_t sweeps0 = obs::registry().counter("sim.batch.sweeps")->value();
  const int64_t lanes0 = obs::registry().counter("sim.batch.lanes")->value();
  const int64_t masked0 =
      obs::registry().counter("fault.lanes_masked")->value();

  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  const std::vector<fault::FaultSite> sites =
      fault::sample_seu_sites(d, 12, 40, 5);
  campaign_at(d, spec, sites, 4, 1);
  obs::set_enabled(false);

  // 12 sites over 4 lanes stream through at least one refilling sweep of
  // 12 lane-runs (each site also replays reference runs; >= keeps the
  // bound implementation-free).
  EXPECT_GE(obs::registry().counter("sim.batch.sweeps")->value(), sweeps0 + 1);
  EXPECT_GE(obs::registry().counter("sim.batch.lanes")->value(), lanes0 + 12);
  EXPECT_GE(obs::registry().counter("fault.lanes_masked")->value(), masked0);
}

// The ExecPlan shape of the IDCT family: the instruction count and level
// depth of each builder's raw netlist are deterministic, so a change here
// is a lowering or frontend change.
TEST(BatchInfra, IdctFamilyExecPlanShapeIsPinned) {
  struct Shape {
    const char* builder;
    size_t nodes;
    int depth;
  };
  const Shape expected[] = {
      {"verilog_initial", 1596, 28}, {"verilog_opt1", 1283, 18},
      {"verilog_opt2", 1074, 23},    {"chisel_initial", 1929, 28},
      {"chisel_opt", 1515, 26},      {"bsv_opt", 1750, 25},
      {"xls_p8", 2482, 10},
  };
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  for (const Shape& e : expected) {
    const Design d = spec.builder(e.builder).build();
    const auto plan = netlist::ExecPlan::for_design(d);
    EXPECT_EQ(plan->instrs().size(), e.nodes) << e.builder;
    EXPECT_EQ(plan->depth(), e.depth) << e.builder;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistBatchDiff,
                         ::testing::Range<uint64_t>(1, 21));
INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistLaneFaults,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace hlshc
