#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& flow_names() {
  static const std::vector<std::string> flows = {
      "verilog", "chisel", "bsv", "xls", "maxj", "bambu", "vhls"};
  return flows;
}

const std::vector<std::string>& pass_names() {
  static const std::vector<std::string> passes = {
      "fold_constants", "narrow",  "strength_reduce", "mux_simplify",
      "copy_prop",      "cse",     "eliminate_dead"};
  return passes;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower", ""},
      {"peak_rss_mb", "MB", "lower", ""},
      {"ops_per_s", "1/s", "higher", ""},
      {"latency_p50_ms", "ms", "lower", ""},
      {"latency_tail_ms", "ms", "lower", ""},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    const std::string build_moves =
        "ops_per_s on dse; svc.hit_p50_ms on svc_mix";
    d.push_back({"frontend.build_ms", "ms", "lower", build_moves});
    for (const std::string& f : flow_names())
      d.push_back({"frontend.build_ms." + f, "ms", "lower", build_moves});
    const std::string compile_moves =
        "svc.miss_p50_ms on svc_mix; ops_per_s on dse";
    d.push_back({"netlist.compile_ms", "ms", "lower", compile_moves});
    for (const std::string& p : pass_names())
      d.push_back({"netlist.pass_ms." + p, "ms", "lower", compile_moves});
    d.push_back({"netlist.iterations", "count", "lower", compile_moves});
    d.push_back({"netlist.nodes_kept_frac", "fraction", "lower",
                 compile_moves});
    d.push_back({"netlist.plan_ms", "ms", "lower",
                 "svc.miss_p50_ms on svc_mix; setup_s on campaign"});
    d.push_back({"synth.ms", "ms", "lower", "ops_per_s on dse"});
    d.push_back({"synth.schedule_ms", "ms", "lower",
                 "svc.miss_p50_ms on svc_mix"});
    d.push_back({"sim.scalar_ms", "ms", "lower",
                 "ops_per_s on dse; latency_tail_ms on svc_mix"});
    d.push_back({"sim.scalar_cycles_per_s", "1/s", "higher",
                 "ops_per_s on dse; latency_tail_ms on svc_mix"});
    const std::string fault_moves =
        "ops_per_s and latency_tail_ms on campaign";
    for (const char* kind : {"seu", "stuck"}) {
      d.push_back({std::string("fault.campaign_ms.") + kind, "ms", "lower",
                   fault_moves});
      d.push_back({std::string("fault.sites_per_s.") + kind, "1/s", "higher",
                   fault_moves});
    }
    d.push_back({"fault.hang_frac", "fraction", "lower", fault_moves});
    d.push_back({"fault.lanes_idle_frac", "fraction", "lower", fault_moves});
    d.push_back({"fault.lane_refills", "count", "higher", fault_moves});
    d.push_back({"fault.jobs2_per_core_ratio", "ratio", "higher",
                 fault_moves});
    const std::string svc_moves =
        "ops_per_s and latency_p50_ms on svc_mix";
    d.push_back({"svc.queue_wait_p50_ms", "ms", "lower", svc_moves});
    d.push_back({"svc.cache_hit_frac", "fraction", "higher", svc_moves});
    d.push_back({"svc.cache_evictions", "count", "lower", svc_moves});
    d.push_back({"svc.key_ms", "ms", "lower", svc_moves});
    d.push_back({"svc.residual_ms", "ms", "lower", svc_moves});
    d.push_back({"svc.hit_p50_ms", "ms", "lower", svc_moves});
    d.push_back({"svc.miss_p50_ms", "ms", "lower", svc_moves});
    d.push_back({"par.busy_frac", "fraction", "higher", "ops_per_s on dse"});
    for (const std::string& f : flow_names())
      d.push_back({"tools.task_ms." + f, "ms", "lower", "ops_per_s on dse"});
    d.push_back({"trace.residual_frac", "fraction", "lower",
                 "none: the traced wall time no layer span covers"});
    d.push_back({"trace.overhead_frac", "fraction", "lower",
                 "none: share of the traced run spent recording spans"});
    return d;
  }();
  return defs;
}

namespace {

std::string number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) throw std::runtime_error("number formatting failed");
  return std::string(buf, end);
}

}  // namespace

std::string result_json(const Outcome& outcome, bool traced) {
  const std::vector<MetricDef>& defs =
      traced ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = outcome.metrics.find(def.name);
    if (it == outcome.metrics.end())
      throw std::logic_error("metric '" + def.name + "' was not measured");
    if (!std::isfinite(it->second))
      throw std::logic_error("metric '" + def.name + "' is not finite");
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + def.name + "\": {\"value\": " + number(it->second) +
               ", \"unit\": \"" + def.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

std::string cause(const std::string& what, const std::string& message) {
  std::string m = message;
  if (const size_t src = m.find("src/"); src != std::string::npos) {
    const size_t start = m.rfind(' ', src);
    m.erase(start == std::string::npos ? 0 : start + 1,
            src - (start == std::string::npos ? 0 : start + 1));
  }
  if (m.size() > 140) m = m.substr(0, 140) + "...";
  return what + ": " + m;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

size_t samples_beyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * n)), 1, n);
  return n - rank;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

}  // namespace perfbench
