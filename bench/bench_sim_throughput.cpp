// Simulation-engine throughput bench: interpreter vs. compiled engine.
//
// For every AXI-Stream design family, runs the same workload on both
// engines and reports cycles/sec and node-ops/sec (simulated cycles x
// combinational nodes evaluated per cycle), plus the compiled/interpreter
// speedup. Two workloads per design:
//
//   raw     — a tight step() loop with held inputs: pure engine throughput,
//             no testbench overhead;
//   stream  — the full AXI-Stream testbench pushing matrices: what the
//             evaluation procedure and fault campaigns actually pay.
//
// A third, lane-batched series replays the stream workload through
// sim::BatchSimulator with the same stimulus on every lane and reports
// aggregate lane-cycles/sec — the rate the batched fault campaigns see —
// plus its speedup over the scalar compiled stream run.
//
// After the timing sweep, an activity-profiled stream run over the
// optimized Verilog IDCT prints the top-10 toggle hotspot table (identical
// on both engines — asserted here, not assumed).
//
// Writes the machine-readable results to BENCH_sim.json (cwd) through the
// obs::RunReport schema and prints a table.
//
// Usage: bench_sim_throughput [raw_cycles] [stream_matrices] [--trace FILE]
//                              [--lanes L] [--workload NAME|all]
// (defaults 200000 and 64). --trace additionally records Chrome trace_event
// JSON for the whole bench, viewable in chrome://tracing / Perfetto.
// --lanes sets the batched-series lane count (default par::default_lanes():
// HLSHC_LANES, else 32). --workload times a workload-registry entry's
// builders (or every entry) instead of the default IDCT family set;
// stimulus always comes from the workload's own registered generator.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axis/batch.hpp"
#include "axis/testbench.hpp"
#include "base/strings.hpp"
#include "core/report.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "workload/workload.hpp"

using hlshc::format_fixed;
using hlshc::format_grouped;
namespace sim = hlshc::sim;
namespace netlist = hlshc::netlist;
namespace obs = hlshc::obs;

namespace {

struct Case {
  std::string name;
  std::function<netlist::Design()> build;
};

std::vector<Case> cases_for(const hlshc::workload::WorkloadSpec& spec) {
  // The IDCT keeps its historical seven-family set (bare names, fixed
  // order); every other workload times all of its fast builders.
  std::vector<Case> out;
  if (spec.name == "idct") {
    for (const char* name :
         {"verilog_initial", "verilog_opt1", "verilog_opt2", "chisel_initial",
          "chisel_opt", "bsv_opt", "xls_p8"})
      out.push_back({name, spec.builder(name).build});
  } else {
    for (const hlshc::workload::BuilderInfo& b : spec.builders)
      if (!b.slow) out.push_back({spec.name + "." + b.name, b.build});
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Raw engine throughput: step() with held inputs. Returns cycles/sec.
double raw_cps(sim::Engine& e, int64_t cycles) {
  e.reset();
  e.set_input("s_tvalid", 1);
  e.set_input("m_tready", 1);
  for (int l = 0; l < hlshc::axis::kLanes; ++l)
    e.set_input(hlshc::axis::lane_port("s", l), 17 * (l + 1));
  auto t0 = std::chrono::steady_clock::now();
  e.run(cycles);
  double secs = seconds_since(t0);
  return secs > 0 ? static_cast<double>(cycles) / secs : 0.0;
}

/// Stream-testbench throughput. Returns cycles/sec over the whole run.
double stream_cps(sim::Engine& e, const std::vector<hlshc::idct::Block>& ins) {
  hlshc::axis::StreamTestbench tb(e);
  auto t0 = std::chrono::steady_clock::now();
  tb.run(ins, 10'000'000);
  double secs = seconds_since(t0);
  return secs > 0 ? static_cast<double>(tb.timing().total_cycles) / secs
                  : 0.0;
}

/// Lane-batched stream throughput: one BatchSimulator sweep streaming the
/// same stimulus as one job per lane. Returns aggregate lane-cycles/sec
/// (simulated cycles x lanes / wall time) — directly comparable with the
/// scalar stream cycles/sec columns.
double batch_stream_cps(const netlist::Design& d, int lanes,
                        const std::vector<hlshc::idct::Block>& ins) {
  sim::BatchSimulator bsim(d, lanes);
  hlshc::axis::BatchStreamTestbench tb(bsim);
  const std::vector<hlshc::axis::BatchStreamTestbench::Job> jobs(
      static_cast<size_t>(lanes), {ins, {}});
  auto t0 = std::chrono::steady_clock::now();
  tb.run_jobs(jobs, 10'000'000);
  double secs = seconds_since(t0);
  return secs > 0 ? static_cast<double>(bsim.cycle()) * lanes / secs : 0.0;
}

obs::Json rate(double v) {
  // One decimal, matching the previous hand-rolled serialization.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  double parsed = 0;
  std::sscanf(buf, "%lf", &parsed);
  return obs::Json::number(parsed);
}

/// Activity-profiled stream run over the optimized Verilog IDCT on both
/// engines; asserts toggle parity and prints the interpreter-vs-compiled-
/// verified top-10 hotspot table.
bool hotspot_section(const std::vector<hlshc::idct::Block>& ins,
                     obs::Json* out) {
  netlist::Design d = hlshc::workload::Registry::instance()
                          .get("idct")
                          .builder("verilog_opt2")
                          .build();
  auto interp = sim::make_engine(d, sim::EngineKind::kInterpreter);
  auto compiled = sim::make_engine(d, sim::EngineKind::kCompiled);
  for (sim::Engine* e : {interp.get(), compiled.get()}) {
    e->set_activity_enabled(true);
    hlshc::axis::StreamTestbench tb(*e);
    tb.run(ins, 10'000'000);
  }
  const sim::ActivityProfile& pi = interp->activity();
  const sim::ActivityProfile& pc = compiled->activity();
  uint64_t total = 0;
  for (size_t i = 0; i < pi.toggles.size(); ++i) {
    if (pi.toggles[i] != pc.toggles[i]) {
      std::fprintf(stderr,
                   "toggle mismatch at node %zu: interp %llu compiled %llu\n",
                   i, static_cast<unsigned long long>(pi.toggles[i]),
                   static_cast<unsigned long long>(pc.toggles[i]));
      return false;
    }
    total += pc.toggles[i];
  }
  std::printf("\n%s", hlshc::core::hotspot_table(d, pc, 10).c_str());

  obs::Json section = obs::Json::object();
  section.set("design", obs::Json::string(d.name()));
  section.set("cycles", obs::Json::number(pc.cycles));
  section.set("total_toggles", obs::Json::number(total));
  section.set("engines_agree", obs::Json::boolean(true));
  obs::Json top = obs::Json::array();
  std::vector<size_t> ranked(pc.toggles.size());
  for (size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
    return pc.toggles[a] > pc.toggles[b];
  });
  for (size_t r = 0; r < ranked.size() && r < 10; ++r) {
    const netlist::Node& n = d.node(static_cast<netlist::NodeId>(ranked[r]));
    obs::Json row = obs::Json::object();
    row.set("node", obs::Json::number(static_cast<int64_t>(ranked[r])));
    row.set("op", obs::Json::string(netlist::op_name(n.op)));
    row.set("toggles", obs::Json::number(pc.toggles[ranked[r]]));
    top.push(std::move(row));
  }
  section.set("top_nodes", std::move(top));
  *out = std::move(section);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t raw_cycles = 200000;
  int matrices = 64;
  int lanes = 0;  // 0 = par::default_lanes()
  std::string trace_path;
  std::string workload = "idct";
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      try {
        lanes = hlshc::par::parse_lanes(argv[++i], "--lanes");
      } catch (const hlshc::Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0) raw_cycles = std::atoll(positional[0]);
  if (positional.size() > 1) matrices = std::atoi(positional[1]);
  if (raw_cycles <= 0 || matrices <= 0) {
    std::fprintf(stderr,
                 "usage: %s [raw_cycles > 0] [stream_matrices > 0] "
                 "[--trace FILE] [--lanes L] [--workload NAME|all]\n",
                 argv[0]);
    return 1;
  }
  if (lanes == 0) lanes = hlshc::par::default_lanes();
  const hlshc::workload::Registry& registry =
      hlshc::workload::Registry::instance();
  std::vector<std::string> workload_names;
  try {
    if (workload == "all")
      workload_names = registry.names();
    else
      workload_names = {registry.get(workload).name};
  } catch (const hlshc::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const bool covers_idct =
      std::find(workload_names.begin(), workload_names.end(), "idct") !=
      workload_names.end();

  if (!trace_path.empty()) obs::tracer().start();
  // One trace id for the whole invocation: every span and event this bench
  // produces correlates under it, same as a service request would.
  const obs::TraceScope bench_trace(obs::new_trace());

  std::printf(
      "=== simulation engine throughput: %lld raw cycles, %d matrices, "
      "%d lanes ===\n\n",
      static_cast<long long>(raw_cycles), matrices, lanes);
  std::printf(
      "%-16s %6s %6s | %12s %12s %6s | %12s %12s %6s | %12s %6s\n", "design",
      "nodes", "depth", "interp c/s", "compiled c/s", "raw x", "interp c/s",
      "compiled c/s", "strm x", "batch lc/s", "bat x");

  obs::RunReport report("bench_sim_throughput");
  report.params()
      .set("raw_cycles", obs::Json::number(raw_cycles))
      .set("stream_matrices", obs::Json::number(matrices))
      .set("lanes", obs::Json::number(lanes))
      .set("workload", obs::Json::string(workload));
  obs::Json designs = obs::Json::array();

  std::vector<hlshc::idct::Block> idct_ins;  // reused by the hotspot section
  for (const std::string& wname : workload_names) {
    const hlshc::workload::WorkloadSpec& spec = registry.get(wname);
    const std::vector<hlshc::workload::Frame> ins =
        hlshc::workload::eval_input_set(spec, matrices, 2026,
                                        /*realistic=*/true);
    if (wname == "idct") idct_ins = ins;
    if (workload_names.size() > 1)
      std::printf("\n--- workload: %s ---\n", wname.c_str());

  for (const Case& c : cases_for(spec)) {
    netlist::Design d = c.build();
    auto plan = netlist::ExecPlan::for_design(d);
    const size_t nodes = plan->instrs().size();

    auto interp = sim::make_engine(d, sim::EngineKind::kInterpreter);
    auto compiled = sim::make_engine(d, sim::EngineKind::kCompiled);

    double raw_i = raw_cps(*interp, raw_cycles);
    double raw_c = raw_cps(*compiled, raw_cycles);
    double strm_i = stream_cps(*interp, ins);
    double strm_c = stream_cps(*compiled, ins);
    double batch_c = batch_stream_cps(d, lanes, ins);
    double raw_x = raw_i > 0 ? raw_c / raw_i : 0.0;
    double strm_x = strm_i > 0 ? strm_c / strm_i : 0.0;
    double batch_x = strm_c > 0 ? batch_c / strm_c : 0.0;

    std::printf("%-16s %6zu %6d | %12s %12s %5sx | %12s %12s %5sx | "
                "%12s %5sx\n",
                c.name.c_str(), nodes, plan->depth(),
                format_grouped((long)raw_i).c_str(),
                format_grouped((long)raw_c).c_str(),
                format_fixed(raw_x, 1).c_str(),
                format_grouped((long)strm_i).c_str(),
                format_grouped((long)strm_c).c_str(),
                format_fixed(strm_x, 1).c_str(),
                format_grouped((long)batch_c).c_str(),
                format_fixed(batch_x, 1).c_str());

    obs::Json row = obs::Json::object();
    row.set("design", obs::Json::string(c.name))
        .set("nodes", obs::Json::number(static_cast<int64_t>(nodes)))
        .set("depth", obs::Json::number(static_cast<int64_t>(plan->depth())))
        .set("interp_cycles_per_sec", rate(raw_i))
        .set("compiled_cycles_per_sec", rate(raw_c))
        .set("raw_speedup", rate(raw_x))
        .set("interp_ops_per_sec", rate(raw_i * static_cast<double>(nodes)))
        .set("compiled_ops_per_sec", rate(raw_c * static_cast<double>(nodes)))
        .set("stream_interp_cycles_per_sec", rate(strm_i))
        .set("stream_compiled_cycles_per_sec", rate(strm_c))
        .set("stream_speedup", rate(strm_x))
        .set("batch_lane_cycles_per_sec", rate(batch_c))
        .set("batch_speedup", rate(batch_x));
    designs.push(std::move(row));
  }
  }
  report.results().set("designs", std::move(designs));

  // The hotspot parity section is pinned to the optimized Verilog IDCT; it
  // only runs when the IDCT is part of this invocation's sweep.
  if (covers_idct) {
    obs::Json hotspots;
    if (!hotspot_section(idct_ins, &hotspots)) {
      std::fprintf(stderr, "activity-counter parity FAILED between engines\n");
      return 1;
    }
    report.results().set("hotspots", std::move(hotspots));
  }

  report.write_file("BENCH_sim.json");
  std::printf("\nwrote BENCH_sim.json\n");

  if (!trace_path.empty()) {
    obs::tracer().stop();
    obs::tracer().write_file(trace_path);
    std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                obs::tracer().event_count());
  }
  return 0;
}
