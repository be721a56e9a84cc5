// Quickstart: build an IDCT design, push a matrix through its AXI-Stream
// interface cycle by cycle, rank its activity hotspots, and run the paper's
// full measurement procedure on it.
//
//   $ ./quickstart
#include <cstdio>

#include "axis/testbench.hpp"
#include "base/strings.hpp"
#include "core/evaluate.hpp"
#include "core/report.hpp"
#include "sim/simulator.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

using namespace hlshc;

int main() {
  // 1. Elaborate a design. Every flow in this library produces the same
  //    netlist IR; here we take the paper's optimized Verilog baseline from
  //    the workload registry.
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  netlist::Design design = spec.builder("verilog_opt2").build();
  std::printf("design '%s': %zu netlist nodes\n", design.name().c_str(),
              design.node_count());

  // 2. Prepare an 8x8 block of DCT coefficients (a checkerboard pattern).
  idct::Block coeffs{};
  idct::at(coeffs, 0, 0) = 512;   // DC
  idct::at(coeffs, 0, 1) = -300;  // some AC energy
  idct::at(coeffs, 1, 0) = 150;
  idct::at(coeffs, 3, 3) = 77;

  // 3. Simulate: the stream testbench feeds the matrix row by row and
  //    collects the result, checking AXI-Stream protocol rules as it goes.
  //    Activity profiling counts every node's toggled bits on the way.
  sim::Simulator sim(design);
  sim.set_activity_enabled(true);
  axis::StreamTestbench tb(sim);
  auto out = tb.run({coeffs});
  std::printf("\nIDCT result (hardware, %d-cycle latency):\n%s",
              tb.timing().latency_cycles, idct::to_string(out[0]).c_str());

  // 4. Cross-check against the workload's golden reference model.
  idct::Block sw = spec.reference(coeffs);
  std::printf("matches software model: %s\n",
              out[0] == sw ? "yes" : "NO");

  // 5. Where the switching activity (the dynamic-power proxy) concentrates.
  std::printf("\n%s", core::hotspot_table(design, sim.activity(), 10).c_str());

  // 6. The paper's measurement procedure: verify, measure T_L/T_P,
  //    synthesize with and without DSPs, compute P and Q.
  core::DesignEvaluation ev = tools::evaluate_design(design, spec);
  std::printf("\nevaluation: fmax=%s MHz, P=%s MOPS, A=%s, Q=%s\n",
              format_fixed(ev.fmax_mhz, 2).c_str(),
              format_fixed(ev.throughput_mops, 2).c_str(),
              format_grouped(ev.area).c_str(),
              format_fixed(ev.quality(), 0).c_str());
  return 0;
}
