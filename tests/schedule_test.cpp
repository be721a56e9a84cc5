// Flow-neutral scheduler tests: knob validation, objective trade-offs,
// boundary retiming, and the extraction contract — synth::schedule_pipeline
// with the delay-balance objective must produce bit-for-bit the netlist the
// XLS flow's pipeliner produced before the machinery moved here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "netlist/dump.hpp"
#include "netlist/ir.hpp"
#include "sim/simulator.hpp"
#include "synth/schedule.hpp"
#include "xls/pipeline.hpp"

namespace hlshc::synth {
namespace {

using netlist::Design;
using netlist::NodeId;

// ---- knob validators -------------------------------------------------------

TEST(ScheduleKnobs, ParseObjectiveNamesBothObjectives) {
  EXPECT_EQ(parse_objective("balance", "test"),
            ScheduleObjective::kDelayBalance);
  EXPECT_EQ(parse_objective("regmin", "test"),
            ScheduleObjective::kRegisterMin);
  EXPECT_STREQ(schedule_objective_name(ScheduleObjective::kDelayBalance),
               "balance");
  EXPECT_STREQ(schedule_objective_name(ScheduleObjective::kRegisterMin),
               "regmin");
  for (const char* bad : {"", "fastest", "BALANCE", "reg-min"})
    EXPECT_THROW(parse_objective(bad, "test"), Error) << '"' << bad << '"';
}

// ---- fixtures --------------------------------------------------------------

/// Random pure-dataflow function (prop_pipeline_test's generator shape):
/// 3 inputs, 2 outputs, arithmetic with sext seams.
Design random_function(uint64_t seed) {
  SplitMix64 rng(seed);
  Design d("fn_" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < 3; ++i)
    pool.push_back(d.input("in" + std::to_string(i),
                           6 + static_cast<int>(rng.next() % 11)));
  pool.push_back(d.constant(12, rng.next_in(-2048, 2047)));
  auto pick = [&]() {
    return pool[static_cast<size_t>(rng.next() % pool.size())];
  };
  for (int i = 0; i < 50; ++i) {
    NodeId a = pick(), b = pick();
    int w = 4 + static_cast<int>(rng.next() % 29);
    switch (rng.next() % 7) {
      case 0: pool.push_back(d.add(a, b, w)); break;
      case 1: pool.push_back(d.sub(a, b, w)); break;
      case 2: pool.push_back(d.mul(a, b, std::min(w + 12, 44))); break;
      case 3: pool.push_back(d.bxor(a, d.sext(b, d.node(a).width),
                                    d.node(a).width)); break;
      case 4: pool.push_back(d.mux(d.sge(a, b), d.sext(a, w),
                                   d.sext(b, w), w)); break;
      case 5: pool.push_back(d.shl(a, static_cast<int>(rng.next() % 4), w));
        break;
      default: pool.push_back(d.ashr(a, static_cast<int>(rng.next() % 4),
                                     d.node(a).width));
        break;
    }
  }
  d.output("out0", pool[pool.size() - 1]);
  d.output("out1", pool[pool.size() - 2]);
  return d;
}

/// Streamed equivalence: for every output, the pipelined design at tick
/// t + latency must equal the combinational design at tick t.
void expect_streamed_equal(const Design& fn, const ScheduleResult& sr,
                           uint64_t input_seed, const std::string& what) {
  ASSERT_GE(sr.latency, 1) << what;
  sim::Simulator comb(fn);
  sim::Simulator pipe(sr.design);
  SplitMix64 rng(input_seed);
  const int kTicks = 20;
  std::vector<std::vector<int64_t>> expected, got;
  for (int t = 0; t < kTicks + sr.latency; ++t) {
    for (NodeId in : fn.inputs()) {
      const auto& n = fn.node(in);
      int64_t v = rng.next_in(-(1 << (n.width - 1)), (1 << (n.width - 1)) - 1);
      comb.set_input(n.name, v);
      pipe.set_input(n.name, v);
    }
    comb.eval();
    pipe.eval();
    if (t < kTicks) {
      std::vector<int64_t> row;
      for (NodeId out : fn.outputs())
        row.push_back(comb.output_i64(fn.node(out).name));
      expected.push_back(std::move(row));
    }
    if (t >= sr.latency) {
      std::vector<int64_t> row;
      for (NodeId out : fn.outputs())
        row.push_back(pipe.output_i64(fn.node(out).name));
      got.push_back(std::move(row));
    }
    comb.step();
    pipe.step();
  }
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected[i], got[i]) << what << " tick " << i;
}

// ---- extraction contract ---------------------------------------------------

TEST(Schedule, DelayBalanceIsBitwiseIdenticalToTheXlsPipeliner) {
  for (uint64_t seed : {301u, 302u, 303u, 304u}) {
    const Design fn = random_function(seed);
    for (int stages : {1, 3, 7}) {
      const xls::PipelineResult via_xls = xls::pipeline_function(fn, stages);
      ScheduleOptions so;
      so.stages = stages;
      const ScheduleResult direct = schedule_pipeline(fn, so);
      EXPECT_EQ(netlist::dump_text(direct.design),
                netlist::dump_text(via_xls.design))
          << "seed " << seed << " stages " << stages;
      EXPECT_EQ(direct.latency, via_xls.latency);
      EXPECT_EQ(direct.merged_stages, via_xls.merged_stages);
      EXPECT_EQ(direct.pipeline_regs, via_xls.pipeline_regs);
    }
  }
}

TEST(Schedule, ZeroStagesIsACombinationalPassthrough) {
  const Design fn = random_function(310);
  const ScheduleResult sr = schedule_pipeline(fn, ScheduleOptions{});
  EXPECT_EQ(sr.latency, 0);
  EXPECT_EQ(sr.pipeline_regs, 0);
  EXPECT_EQ(netlist::dump_text(sr.design), netlist::dump_text(fn));
}

TEST(Schedule, RejectsSequentialDesigns) {
  Design d("seq");
  NodeId r = d.reg(8, 0, "r");
  d.set_reg_next(r, d.add(r, d.constant(8, 1), 8));
  d.output("r", r);
  d.validate();
  ScheduleOptions so;
  so.stages = 2;
  EXPECT_THROW(schedule_pipeline(d, so), Error);
}

// ---- objectives and retiming ----------------------------------------------

struct Case {
  uint64_t seed;
  int stages;
};

class ScheduledFunction : public ::testing::TestWithParam<Case> {};

TEST_P(ScheduledFunction, RegminNeverUsesMoreRegisterBitsThanBalance) {
  const Design fn = random_function(GetParam().seed);
  ScheduleOptions balance;
  balance.stages = GetParam().stages;
  ScheduleOptions regmin = balance;
  regmin.objective = ScheduleObjective::kRegisterMin;
  const ScheduleResult b = schedule_pipeline(fn, balance);
  const ScheduleResult r = schedule_pipeline(fn, regmin);
  EXPECT_LE(r.pipeline_regs, b.pipeline_regs);
  EXPECT_EQ(r.latency, b.latency);  // same schedule depth, cheaper cuts
  expect_streamed_equal(fn, r, GetParam().seed * 5 + 1, "regmin");
}

TEST_P(ScheduledFunction, RetimedBoundariesPreserveBehaviour) {
  const Design fn = random_function(GetParam().seed);
  ScheduleOptions so;
  so.stages = GetParam().stages;
  so.retime_boundaries = true;
  expect_streamed_equal(fn, schedule_pipeline(fn, so),
                        GetParam().seed * 9 + 4, "retime");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduledFunction,
    ::testing::Values(Case{321, 2}, Case{322, 2}, Case{323, 4}, Case{324, 4},
                      Case{325, 7}, Case{326, 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "s" + std::to_string(info.param.seed) + "_d" +
             std::to_string(info.param.stages);
    });

TEST(Schedule, RetimingRegistersTheNarrowSideOfAnExtensionSeam) {
  // One seam, one boundary: a 2-stage split of sext(a) * sext(b) cuts at
  // the extended values. Retiming must register the 8-bit sources instead
  // of the 32-bit extensions, with identical streamed behaviour.
  Design d("seam");
  NodeId a = d.input("a", 8);
  NodeId b = d.input("b", 8);
  NodeId wide_a = d.sext(a, 32);
  NodeId wide_b = d.sext(b, 32);
  d.output("p", d.mul(wide_a, wide_b, 40));
  d.validate();

  ScheduleOptions plain;
  plain.stages = 2;
  ScheduleOptions retimed = plain;
  retimed.retime_boundaries = true;
  const ScheduleResult p = schedule_pipeline(d, plain);
  const ScheduleResult r = schedule_pipeline(d, retimed);
  EXPECT_LT(r.pipeline_regs, p.pipeline_regs);
  expect_streamed_equal(d, r, 77, "seam-retime");
  expect_streamed_equal(d, p, 77, "seam-plain");
}

}  // namespace
}  // namespace hlshc::synth
