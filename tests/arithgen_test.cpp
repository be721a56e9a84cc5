// Tests for the shift-add arithmetic units (testutil::generate_*): exhaustive
// and random equivalence against plain multiplication, CSD vs binary cost,
// pipelining of generated units, and composition with the rest of the
// framework.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "idct/chenwang.hpp"
#include "sim/simulator.hpp"
#include "synth/csd.hpp"
#include "synth/synthesize.hpp"
#include "testutil.hpp"
#include "xls/pipeline.hpp"

namespace hlshc::framework {
namespace {

using testutil::ArithGenOptions;
using testutil::generate_const_multiplier;
using testutil::generate_dot_product;

int64_t run_mult(netlist::Design& d, int64_t x) {
  sim::Simulator sim(d);
  sim.set_input("i0", x);
  sim.eval();
  return sim.output_i64("o0");
}

class IdctConstants : public ::testing::TestWithParam<int64_t> {};

TEST_P(IdctConstants, CsdMultiplierMatchesMultiplication) {
  ArithGenOptions o;
  netlist::Design d =
      generate_const_multiplier(GetParam(), o, "mul_csd");
  SplitMix64 rng(static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 200; ++iter) {
    int64_t x = rng.next_in(-32768, 32767);
    EXPECT_EQ(run_mult(d, x),
              static_cast<int32_t>(x * GetParam()));
  }
}

TEST_P(IdctConstants, BinaryVariantAlsoMatches) {
  ArithGenOptions o;
  o.csd = false;
  netlist::Design d = generate_const_multiplier(GetParam(), o, "mul_bin");
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) + 1);
  for (int iter = 0; iter < 100; ++iter) {
    int64_t x = rng.next_in(-32768, 32767);
    EXPECT_EQ(run_mult(d, x), static_cast<int32_t>(x * GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    W, IdctConstants,
    ::testing::Values(idct::kW1, idct::kW2, idct::kW3, idct::kW5, idct::kW6,
                      idct::kW7, 181, idct::kW1 - idct::kW7,
                      idct::kW1 + idct::kW7, -181, 1, -1, 0, 1024));

TEST(ArithGen, NegativeAndSmallInputsExhaustive) {
  ArithGenOptions o;
  o.input_width = 8;
  netlist::Design d = generate_const_multiplier(-2841, o, "neg");
  for (int x = -128; x <= 127; ++x)
    EXPECT_EQ(run_mult(d, x), x * -2841) << x;
}

TEST(ArithGen, CsdUsesFewerAddersThanBinary) {
  // A run of ones (0x7FFF = 15 binary digits) collapses to 2 CSD digits
  // (2^15 - 1); isolated-ones constants like 0x5555 gain nothing, which
  // is also checked.
  ArithGenOptions csd, bin;
  bin.csd = false;
  synth::SynthOptions nodsp;
  nodsp.maxdsp = 0;
  auto rc = synth::synthesize(
      generate_const_multiplier(0x7FFF, csd, "csd"), nodsp);
  auto rb = synth::synthesize(
      generate_const_multiplier(0x7FFF, bin, "bin"), nodsp);
  EXPECT_LT(rc.n_lut, rb.n_lut / 4);
  EXPECT_EQ(synth::csd_nonzero_digits(0x5555),
            synth::binary_nonzero_digits(0x5555));
}

TEST(ArithGen, GeneratedUnitIsPipelinable) {
  // The generated tree is pure dataflow, so the XLS scheduler can pipeline
  // it directly — the composability the paper's framework asks for.
  netlist::Design d =
      generate_const_multiplier(idct::kW3, ArithGenOptions{}, "p");
  auto pr = xls::pipeline_function(d, 2);
  EXPECT_GE(pr.latency, 1);
  sim::Simulator sim(pr.design);
  sim.set_input("i0", -1234);
  for (int i = 0; i < pr.latency; ++i) sim.step();
  EXPECT_EQ(sim.output_i64("o0"), -1234 * idct::kW3);
}

TEST(ArithGen, DotProductMatchesReference) {
  // One quarter of an IDCT butterfly stage: W7*a + (W1-W7)*b - 181*c.
  std::vector<int64_t> consts = {idct::kW7, idct::kW1 - idct::kW7, -181};
  netlist::Design d =
      generate_dot_product(consts, ArithGenOptions{}, "dot");
  sim::Simulator sim(d);
  SplitMix64 rng(9);
  for (int iter = 0; iter < 200; ++iter) {
    int64_t a = rng.next_in(-2048, 2047), b = rng.next_in(-2048, 2047),
            c = rng.next_in(-2048, 2047);
    sim.set_input("i0", a);
    sim.set_input("i1", b);
    sim.set_input("i2", c);
    sim.eval();
    EXPECT_EQ(sim.output_i64("o0"),
              static_cast<int32_t>(a * idct::kW7 +
                                   b * (idct::kW1 - idct::kW7) - c * 181));
  }
}

TEST(ArithGen, PowerOfTwoIsPureWiring) {
  synth::SynthOptions nodsp;
  nodsp.maxdsp = 0;
  auto r = synth::synthesize(
      generate_const_multiplier(64, ArithGenOptions{}, "p2"), nodsp);
  EXPECT_EQ(r.n_lut, 0);
}

TEST(ArithGen, DotProductRejectsEmpty) {
  EXPECT_THROW(generate_dot_product({}, ArithGenOptions{}, "e"), Error);
}

}  // namespace
}  // namespace hlshc::framework
