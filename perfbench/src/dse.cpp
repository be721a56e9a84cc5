// The `dse` workload: the batch job that regenerates Fig. 1.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "host.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "maxj/kernels.hpp"
#include "tools/flows.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hc = hlshc;

namespace {

/// Sweep workers: the whole load, caller included, stays within 4 threads.
constexpr int kJobs = 4;

/// The pinned sweep, in full_dse's canonical point order (two BSV
/// scheduler configurations share a label, so order, not label, is the key).
using Pins = std::vector<hc::core::ScatterPoint>;

std::string format_point(const hc::core::ScatterPoint& p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", p.throughput_mops);
  std::ostringstream out;
  out << p.workload << '\t' << p.family << '\t' << p.config << '\t' << p.area
      << '\t' << buf << '\t' << p.nodes_saved;
  return out.str();
}

Pins load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing pinned DSE outputs " + path);
  Pins pins;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string w, f, c, a, p, n;
    std::getline(row, w, '\t');
    std::getline(row, f, '\t');
    std::getline(row, c, '\t');
    std::getline(row, a, '\t');
    std::getline(row, p, '\t');
    std::getline(row, n, '\t');
    pins.push_back({f, c, std::stod(p), std::stol(a), std::stol(n), w});
  }
  return pins;
}

/// The paper's Verilog progression anchors (Table II areas), with width
/// narrowing and with it off ("+wide").
const std::map<std::string, long>& anchors() {
  static const std::map<std::string, long> a = {
      {"initial", 30516},        {"opt1-1row8col", 20072},
      {"opt2-pipelined", 8255},  {"initial+wide", 32004},
      {"opt1-1row8col+wide", 20971}, {"opt2-pipelined+wide", 8604}};
  return a;
}

/// Checks point `i` of a sweep against its pin.
void check_point(size_t i, const hc::core::ScatterPoint& p, const Pins& pins,
                 Outcome& out) {
  if (i >= pins.size()) {
    out.mismatch("unpinned DSE point " + format_point(p));
    return;
  }
  const hc::core::ScatterPoint& want = pins[i];
  const bool same_p =
      std::abs(p.throughput_mops - want.throughput_mops) <=
      1e-9 * std::max(1.0, std::abs(want.throughput_mops));
  if (p.workload != want.workload || p.family != want.family ||
      p.config != want.config || p.area != want.area || !same_p ||
      p.nodes_saved != want.nodes_saved)
    out.mismatch("DSE point " + std::to_string(i) + " is " + format_point(p) +
                 ", pinned " + format_point(want));
  if (p.workload == "idct" && p.family == "verilog") {
    auto a = anchors().find(p.config);
    if (a != anchors().end() && a->second != p.area)
      out.mismatch("Verilog progression anchor " + p.config + ": A = " +
                   std::to_string(p.area) + ", expected " +
                   std::to_string(a->second));
  }
}

void check_sweep(const std::vector<hc::core::ScatterPoint>& points,
                 const Pins& pins, Outcome& out) {
  if (points.size() != pins.size())
    out.mismatch("full_dse returned " + std::to_string(points.size()) +
                 " points, " + std::to_string(pins.size()) + " pinned");
  for (size_t i = 0; i < points.size(); ++i) check_point(i, points[i], pins, out);
}

/// The DSE's own set-up: the workload registry and both flow grids'
/// task lists (nothing is built or evaluated yet).
size_t enumerate_tasks() {
  size_t n = 0;
  hc::tools::CompileOptions wide;
  wide.narrow = false;
  for (const auto& copts : {hc::tools::CompileOptions{}, wide})
    for (const auto& flow : hc::tools::make_flows(copts))
      n += flow->sweep_tasks().size();
  for (const auto& [name, spec] : hc::workload::Registry::instance().all())
    if (name != "idct")
      for (const auto& b : spec.builders) n += b.slow ? 0 : 1;
  return n;
}

/// The traced run: every sweep task timed one by one, then the registry
/// builders replayed through the layer calls at the DSE's matrix counts.
void traced_dse(const RunOptions& o, const Pins& pins, Outcome& out) {
  // Untraced reference sweep for the pool's busy fraction.
  const int64_t t0 = now_ns();
  check_sweep(hc::tools::full_dse(kJobs), pins, out);
  const double sweep_ns = static_cast<double>(now_ns() - t0);

  Layers L;
  L.ledger.start();
  hc::tools::CompileOptions wide;
  wide.narrow = false;
  for (const bool is_wide : {false, true})
    for (const auto& flow : hc::tools::make_flows(is_wide ? wide
                                                          : hc::tools::CompileOptions{}))
      for (const hc::tools::SweepTask& t : flow->sweep_tasks()) {
        const size_t index = static_cast<size_t>(out.attempted++);
        try {
          hc::core::ScatterPoint p = L.task(t.family, t.run);
          if (is_wide) p.config += "+wide";
          check_point(index, p, pins, out);
        } catch (const std::exception& e) {
          out.fail(cause("exception", e.what()));
        }
      }
  const auto& reg = hc::workload::Registry::instance();
  for (const auto& [name, spec] : reg.all()) {
    if (name == "idct") continue;
    for (const auto& b : spec.builders) {
      if (b.slow) continue;
      const size_t index = static_cast<size_t>(out.attempted++);
      try {
        const hc::core::DesignEvaluation ev = L.task(b.flow, [&] {
          return hc::tools::evaluate_design(b.build(), spec);
        });
        check_point(index,
                    {b.flow, name + "." + b.name, ev.throughput_mops, ev.area,
                     static_cast<long>(ev.pipeline.nodes_delta()), name},
                    pins, out);
      } catch (const std::exception& e) {
        out.fail(cause("exception", e.what()));
      }
    }
  }

  // Layer split: frontend, compile, synth, plan, scalar simulation.
  for (const auto& [name, spec] : reg.all())
    for (const auto& b : spec.builders) {
      const hc::netlist::Design d = L.build(b.flow, b.build);
      const hc::tools::CompiledDesign c = L.compile(d, {});
      L.synth(c.design);
      L.plan(c.design);
      // The Bambu sweep and the push-button Vivado HLS design stream 3
      // frames per evaluation, everything else the default 8.
      const int matrices = b.flow == "bambu" || b.slow ? 3 : 8;
      if (!L.simulate(c.design, spec, matrices))
        out.mismatch(name + "." + b.name + " is not functional");
    }
  for (auto* kernel : {&hc::maxj::build_matrix_kernel, &hc::maxj::build_row_kernel}) {
    const hc::netlist::Design d =
        L.build("maxj", [kernel] { return kernel().design; });
    L.synth(L.compile(d, {}).design);
  }
  L.ledger.stop();

  L.report(out, o.out_dir + "/spans-dse.jsonl");
  const double task_ns = static_cast<double>(L.ledger.prefix_row("tools.task.").self_ns);
  out.metrics["par.busy_frac"] = task_ns / (kJobs * sweep_ns);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "par: serial task time %.2f s vs full_dse(%d) wall %.2f s "
                "-> busy_frac %.3f",
                task_ns / 1e9, kJobs, sweep_ns / 1e9,
                out.metrics["par.busy_frac"]);
  out.lines.push_back(buf);
}

}  // namespace

Outcome run_dse(const RunOptions& o) {
  Outcome out;
  const auto pins = load_pins(o.expected_dir + "/dse.tsv");

  const size_t tasks = enumerate_tasks();
  if (tasks != pins.size())
    out.mismatch("the DSE enumerates " + std::to_string(tasks) +
                 " tasks, " + std::to_string(pins.size()) + " pinned");

  if (o.traced) {
    traced_dse(o, pins, out);
    return out;
  }

  std::vector<double> sweeps_ms;
  const int64_t begin = now_ns();
  for (;;) {
    const int64_t t0 = now_ns();
    try {
      check_sweep(hc::tools::full_dse(kJobs), pins, out);
    } catch (const std::exception& e) {
      out.fail(cause("exception", e.what()));
      out.failed += static_cast<int64_t>(pins.size()) - 1;
    }
    sweeps_ms.push_back((now_ns() - t0) / 1e6);
    out.attempted += static_cast<int64_t>(pins.size());
    // Start another sweep only if it is expected to end inside the window.
    if ((now_ns() - begin) / 1e6 + median(sweeps_ms) > o.seconds * 1e3) break;
  }
  double total_ms = 0;
  for (double s : sweeps_ms) total_ms += s;
  const double ok = static_cast<double>(out.attempted - out.failed);
  out.metrics["ops_per_s"] = ok / (total_ms / 1e3);
  out.metrics["latency_p50_ms"] = median(sweeps_ms);
  out.metrics["latency_tail_ms"] = percentile(sweeps_ms, 1.0);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "dse: %zu sweeps of %zu configs at jobs=%d; configs_per_s "
                "%.2f; sweep p50 %.0f ms, max %.0f ms (n=%zu)",
                sweeps_ms.size(), pins.size(), kJobs,
                out.metrics["ops_per_s"], out.metrics["latency_p50_ms"],
                out.metrics["latency_tail_ms"], sweeps_ms.size());
  out.lines.push_back(buf);
  return out;
}

double dse_setup() {
  return seconds_of([] { enumerate_tasks(); });
}

void pin_dse(const std::string& path) {
  std::ofstream out(path);
  out << "# workload\tfamily\tconfig\tA\tP_mops\tnodes_saved -- "
         "tools::full_dse, regenerate with: perfbench --pin dse\n";
  for (const auto& p : hc::tools::full_dse(kJobs)) out << format_point(p) << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
