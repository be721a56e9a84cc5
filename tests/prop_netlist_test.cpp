// Property-based tests over randomly generated netlists: the optimization
// passes, the module instantiation splice and the Verilog emitter must all
// preserve (or correctly describe) simulated behaviour. Parameterized over
// generator seeds, so every instance is a distinct random circuit.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "netlist/instantiate.hpp"
#include "netlist/ir.hpp"
#include "netlist/pass_manager.hpp"
#include "netlist/passes.hpp"
#include "netlist/verilog.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace hlshc::netlist {
namespace {

/// Random DAG builder: a few inputs, a pile of random ops (with a bias
/// toward arithmetic), a couple of registers with feedback, and every
/// dangling value exposed as an output.
Design random_design(uint64_t seed, int ops = 60) {
  SplitMix64 rng(seed);
  Design d("rand_" + std::to_string(seed));
  std::vector<NodeId> pool;
  std::vector<NodeId> regs;

  int n_inputs = 2 + static_cast<int>(rng.next() % 4);
  for (int i = 0; i < n_inputs; ++i)
    pool.push_back(
        d.input("in" + std::to_string(i), 4 + static_cast<int>(rng.next() % 13)));
  for (int i = 0; i < 2; ++i) {
    NodeId r = d.reg(8 + static_cast<int>(rng.next() % 9),
                     static_cast<int64_t>(rng.next_in(-100, 100)),
                     "r" + std::to_string(i));
    regs.push_back(r);
    pool.push_back(r);
  }
  pool.push_back(d.constant(8, rng.next_in(-128, 127)));
  pool.push_back(d.constant(12, rng.next_in(-2048, 2047)));

  auto pick = [&]() {
    return pool[static_cast<size_t>(rng.next() % pool.size())];
  };
  for (int i = 0; i < ops; ++i) {
    int w = 2 + static_cast<int>(rng.next() % 23);
    NodeId a = pick(), b = pick();
    NodeId v;
    switch (rng.next() % 12) {
      case 0: v = d.add(a, b, w); break;
      case 1: v = d.sub(a, b, w); break;
      case 2: v = d.mul(a, b, std::min(w + 16, 40)); break;
      case 3: v = d.band(a, b, w); break;
      case 4: v = d.bor(a, b, w); break;
      case 5: v = d.bxor(a, b, w); break;
      case 6: v = d.shl(a, static_cast<int>(rng.next() % 6), w); break;
      case 7: v = d.ashr(a, static_cast<int>(rng.next() % 6), w); break;
      case 8: v = d.mux(d.slt(a, b), a, b, w); break;
      case 9: v = d.sext(a, w); break;
      case 10: {
        int aw = d.node(a).width;
        int lo = static_cast<int>(rng.next() % static_cast<uint64_t>(aw));
        v = d.slice(a, aw - 1, lo);
        break;
      }
      default: v = d.neg(a, w); break;
    }
    pool.push_back(v);
  }
  // Registers get arbitrary feedback (width-adapted).
  for (NodeId r : regs)
    d.set_reg_next(r, d.sext(pick(), d.node(r).width));
  // Expose the last few values.
  for (int i = 0; i < 4; ++i)
    d.output("out" + std::to_string(i),
             pool[pool.size() - 1 - static_cast<size_t>(i)]);
  d.validate();
  return d;
}

/// Runs `cycles` with pseudorandom inputs; returns all output values seen.
std::vector<int64_t> run_trace(const Design& d, uint64_t input_seed,
                               int cycles = 20) {
  sim::Simulator sim(d);
  SplitMix64 rng(input_seed);
  std::vector<int64_t> trace;
  for (int t = 0; t < cycles; ++t) {
    for (NodeId in : d.inputs()) {
      const Node& n = d.node(in);
      sim.set_input(n.name, static_cast<int64_t>(rng.next()) &
                                ((1LL << (n.width - 1)) - 1));
    }
    sim.eval();
    for (NodeId out : d.outputs())
      trace.push_back(sim.value(out).to_int64());
    sim.step();
  }
  return trace;
}

/// Engine-kind-generic trace (interpreter or compiled): `cycles` with
/// pseudorandom full-width inputs; returns all output values seen.
std::vector<int64_t> run_engine_trace(const Design& d, sim::EngineKind kind,
                                      uint64_t input_seed, int cycles = 20) {
  std::unique_ptr<sim::Engine> eng = sim::make_engine(d, kind);
  eng->reset();
  SplitMix64 rng(input_seed);
  std::vector<int64_t> trace;
  for (int t = 0; t < cycles; ++t) {
    for (NodeId in : d.inputs()) {
      const Node& n = d.node(in);
      eng->set_input(n.name,
                     BitVec(n.width, static_cast<int64_t>(rng.next())));
    }
    eng->eval();
    for (NodeId out : d.outputs())
      trace.push_back(eng->output(d.node(out).name).to_int64());
    eng->step();
  }
  return trace;
}

class RandomNetlist : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetlist, ConstantFoldingPreservesBehaviour) {
  Design original = random_design(GetParam());
  Design folded = original;
  fold_constants(folded);
  EXPECT_EQ(run_trace(original, GetParam() * 3 + 1),
            run_trace(folded, GetParam() * 3 + 1));
}

TEST_P(RandomNetlist, OptimizePreservesBehaviour) {
  Design original = random_design(GetParam());
  Design optimized = optimize(original);
  EXPECT_LE(optimized.node_count(), original.node_count());
  EXPECT_EQ(run_trace(original, GetParam() * 7 + 5),
            run_trace(optimized, GetParam() * 7 + 5));
}

TEST_P(RandomNetlist, EveryRegisteredPassPreservesBehaviour) {
  Design original = random_design(GetParam());
  for (const std::string& pass : registered_pass_names()) {
    Design transformed = original;
    make_pass(pass)->run(transformed);
    transformed.validate();
    for (sim::EngineKind kind :
         {sim::EngineKind::kInterpreter, sim::EngineKind::kCompiled}) {
      EXPECT_EQ(run_engine_trace(original, kind, GetParam() * 13 + 2),
                run_engine_trace(transformed, kind, GetParam() * 13 + 2))
          << "pass '" << pass << "' on " << sim::engine_kind_name(kind)
          << " engine";
    }
  }
}

TEST_P(RandomNetlist, FullPipelinePreservesBehaviour) {
  Design original = random_design(GetParam());
  PassStats stats;
  Design compiled = default_pipeline(/*strength_reduce=*/true)
                        .run(original, &stats);
  compiled.validate();
  EXPECT_GE(stats.iterations, 1);
  for (sim::EngineKind kind :
       {sim::EngineKind::kInterpreter, sim::EngineKind::kCompiled}) {
    EXPECT_EQ(run_engine_trace(original, kind, GetParam() * 17 + 3),
              run_engine_trace(compiled, kind, GetParam() * 17 + 3))
        << "full pipeline on " << sim::engine_kind_name(kind) << " engine";
  }
}

TEST_P(RandomNetlist, PipelinePreservesArithgenDotProducts) {
  // Dot products with random constants: the strength-reduction / CSE
  // stress case (every multiplier is already an explicit shift-add tree).
  SplitMix64 rng(GetParam() * 19 + 7);
  std::vector<int64_t> constants;
  for (int i = 0; i < 4; ++i) constants.push_back(rng.next_in(-2048, 2047));
  testutil::ArithGenOptions opts;
  opts.csd = (GetParam() % 2) == 0;
  Design original = testutil::generate_dot_product(
      constants, opts, "dp_" + std::to_string(GetParam()));
  Design compiled = default_pipeline(/*strength_reduce=*/true).run(original);
  compiled.validate();
  EXPECT_LE(compiled.node_count(), original.node_count());
  for (sim::EngineKind kind :
       {sim::EngineKind::kInterpreter, sim::EngineKind::kCompiled}) {
    EXPECT_EQ(run_engine_trace(original, kind, GetParam() + 23),
              run_engine_trace(compiled, kind, GetParam() + 23));
  }
}

TEST_P(RandomNetlist, InstantiationPreservesBehaviour) {
  Design sub = random_design(GetParam());
  // Host: same ports, sub spliced in between.
  Design host("host");
  std::map<std::string, NodeId> bindings;
  for (NodeId in : sub.inputs()) {
    const Node& n = sub.node(in);
    bindings[n.name] = host.input(n.name, n.width);
  }
  auto outs = instantiate(host, sub, bindings);
  for (auto& [name, node] : outs) host.output(name, node);
  host.validate();
  EXPECT_EQ(run_trace(sub, GetParam() + 11), run_trace(host, GetParam() + 11));
}

TEST_P(RandomNetlist, TopoOrderIsConsistent) {
  Design d = random_design(GetParam());
  auto order = d.topo_order();
  ASSERT_EQ(order.size(), d.node_count());
  std::vector<int> pos(d.node_count());
  for (size_t i = 0; i < order.size(); ++i)
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    if (n.op == Op::Reg) continue;
    for (NodeId o : n.operands)
      EXPECT_LT(pos[static_cast<size_t>(o)], pos[i]);
  }
}

TEST_P(RandomNetlist, VerilogEmitterCoversTheDesign) {
  Design d = random_design(GetParam());
  std::string v = emit_verilog(d);
  EXPECT_NE(v.find("module rand_"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  for (NodeId out : d.outputs())
    EXPECT_NE(v.find("assign " + d.node(out).name + " = "),
              std::string::npos);
  // Every register appears in the clocked process.
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlist,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace hlshc::netlist
