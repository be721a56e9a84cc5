// Property-based tests for the synthesis substrate:
//   * range-analysis soundness — every simulated node value must lie inside
//     the interval the analysis computed (the narrowing the cost model
//     relies on must never be wrong);
//   * monotonicity properties of the cost model (more DSP budget never
//     increases LUTs; wider constants never get cheaper CSD trees);
//   * pipeliner properties over the IDCT kernel (latency monotone in the
//     requested stages; fmax non-decreasing).
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "netlist/ir.hpp"
#include "sim/simulator.hpp"
#include "synth/csd.hpp"
#include "netlist/range.hpp"
#include "synth/synthesize.hpp"
#include "xls/designs.hpp"
#include "xls/pipeline.hpp"

namespace hlshc::synth {
namespace {

using netlist::Design;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

/// Random combinational design built only from range-tracked operators.
Design random_arith_design(uint64_t seed) {
  SplitMix64 rng(seed);
  Design d("arith_" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < 3; ++i)
    pool.push_back(d.input("in" + std::to_string(i),
                           4 + static_cast<int>(rng.next() % 10)));
  pool.push_back(d.constant(13, rng.next_in(-4000, 4000)));
  auto pick = [&]() {
    return pool[static_cast<size_t>(rng.next() % pool.size())];
  };
  for (int i = 0; i < 40; ++i) {
    NodeId a = pick(), b = pick();
    int w = std::min(d.node(a).width + d.node(b).width + 2, 48);
    switch (rng.next() % 6) {
      case 0: pool.push_back(d.add(a, b, w)); break;
      case 1: pool.push_back(d.sub(a, b, w)); break;
      case 2: pool.push_back(d.mul(a, b, std::min(w + 8, 56))); break;
      case 3:
        pool.push_back(d.shl(a, static_cast<int>(rng.next() % 5),
                             std::min(d.node(a).width + 5, 48)));
        break;
      case 4:
        pool.push_back(d.ashr(a, static_cast<int>(rng.next() % 5),
                              d.node(a).width));
        break;
      default:
        pool.push_back(d.mux(d.slt(a, b), d.sext(a, w), d.sext(b, w), w));
        break;
    }
  }
  d.output("o", pool.back());
  return d;
}

class RandomArith : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomArith, RangeAnalysisIsSound) {
  Design d = random_arith_design(GetParam());
  RangeAnalysis ranges(d);
  sim::Simulator sim(d);
  SplitMix64 rng(GetParam() ^ 0xabcdef);
  for (int iter = 0; iter < 30; ++iter) {
    for (NodeId in : d.inputs()) {
      const Node& n = d.node(in);
      int64_t lo = -(int64_t{1} << (n.width - 1));
      int64_t hi = (int64_t{1} << (n.width - 1)) - 1;
      sim.set_input(n.name, rng.next_in(lo, hi));
    }
    sim.eval();
    for (size_t i = 0; i < d.node_count(); ++i) {
      NodeId id = static_cast<NodeId>(i);
      int64_t v = sim.value(id).to_int64();
      const Interval& r = ranges.range(id);
      EXPECT_GE(v, r.lo) << "node " << i << " op "
                         << netlist::op_name(d.node(id).op);
      EXPECT_LE(v, r.hi) << "node " << i << " op "
                         << netlist::op_name(d.node(id).op);
    }
  }
}

TEST_P(RandomArith, EffectiveWidthHoldsTheRange) {
  Design d = random_arith_design(GetParam());
  RangeAnalysis ranges(d);
  for (size_t i = 0; i < d.node_count(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    int w = ranges.effective_width(id);
    EXPECT_GE(w, 1);
    EXPECT_TRUE(ranges.range(id).fits(std::max(w, d.node(id).width)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomArith,
                         ::testing::Range<uint64_t>(100, 120));

// ---- cost model monotonicity ------------------------------------------------

TEST(CostModelProperties, MoreDspBudgetNeverCostsMoreLuts) {
  Design d = random_arith_design(7);
  long prev_luts = -1;
  for (long budget : {0L, 2L, 8L, 32L, -1L}) {
    SynthOptions o;
    o.maxdsp = budget;
    long luts = synthesize(d, o).n_lut;
    if (prev_luts >= 0 && budget != -1) {
      EXPECT_LE(luts, prev_luts);
    }
    if (budget != -1) prev_luts = luts;
  }
}

TEST(CostModelProperties, CsdDigitsGrowWithOddConstantsNotMagnitude) {
  // A power of two costs nothing however large; a dense constant costs.
  EXPECT_EQ(csd_adder_count(1 << 20), 0);
  EXPECT_GT(csd_adder_count(0x55555), 5);
  // CSD count is invariant under shifts of the constant.
  for (int64_t base : {181, 565, 2841}) {
    int digits = csd_nonzero_digits(base);
    for (int sh = 1; sh < 8; ++sh)
      EXPECT_EQ(csd_nonzero_digits(base << sh), digits) << base << sh;
  }
}

// ---- pipeliner properties ----------------------------------------------------

class PipelinerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelinerSweep, LatencyBoundedByRequest) {
  auto pr = xls::pipeline_function(xls::build_idct_kernel(), GetParam());
  EXPECT_GE(pr.latency, 1);
  EXPECT_LE(pr.latency, GetParam());
  EXPECT_EQ(pr.latency + pr.merged_stages, GetParam());
}

TEST_P(PipelinerSweep, FmaxNeverBelowCombinational) {
  static const double comb_fmax =
      synthesize(xls::build_idct_kernel()).fmax_mhz;
  auto pr = xls::pipeline_function(xls::build_idct_kernel(), GetParam());
  EXPECT_GE(synthesize(pr.design).fmax_mhz, comb_fmax * 0.99);
}

INSTANTIATE_TEST_SUITE_P(Stages, PipelinerSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16));

}  // namespace
}  // namespace hlshc::synth
