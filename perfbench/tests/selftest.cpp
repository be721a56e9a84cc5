// Self-test of the benchmark itself (not of the program under test):
//   1. the same seed yields a byte-identical request / operation script,
//      and another seed a different one;
//   2. the metric names the benchmark prints equal BENCHMARK.json's lists;
//   3. a synthetic delay wrapped around one layer call is attributed to
//      that layer, not to the residual, and the rows sum to the wall time.
// Exits nonzero on the first failed check.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "metrics.hpp"
#include "obs/json.hpp"
#include "script.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void scripts_are_seeded() {
  using namespace perfbench;
  const std::vector<DesignRef> designs = service_designs();
  const std::string a = render(svc_script(7, 2000, designs));
  const std::string b = render(svc_script(7, 2000, designs));
  const std::string c = render(svc_script(8, 2000, designs));
  check(a == b, "svc_mix: same seed, byte-identical request script");
  check(a != c, "svc_mix: another seed, another request script");
  const std::string x = render(campaign_script(7, 2));
  const std::string y = render(campaign_script(7, 2));
  const std::string z = render(campaign_script(8, 2));
  check(x == y, "campaign: same seed, byte-identical operation script");
  check(x != z, "campaign: another seed, another operation script");
  check(svc_key_universe(designs) > 64,
        "svc_mix: the compile key universe exceeds the 64-entry cache");
}

/// "name unit better" per metric, in list order.
std::vector<std::string> rows_of(const hlshc::obs::Json& list) {
  std::vector<std::string> out;
  for (size_t i = 0; i < list.size(); ++i)
    out.push_back(list[i].at("name").as_string() + ' ' +
                  list[i].at("unit").as_string() + ' ' +
                  list[i].at("better").as_string());
  return out;
}

std::vector<std::string> rows_of(const std::vector<perfbench::MetricDef>& defs) {
  std::vector<std::string> out;
  for (const auto& d : defs) out.push_back(d.name + ' ' + d.unit + ' ' + d.better);
  return out;
}

void metric_names_match() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const hlshc::obs::Json bench = hlshc::obs::Json::parse(text.str());
  check(rows_of(bench.at("end_to_end")) ==
            rows_of(perfbench::end_to_end_metrics()),
        "end-to-end metric names, units and directions equal BENCHMARK.json");
  check(rows_of(bench.at("per_layer")) == rows_of(perfbench::per_layer_metrics()),
        "per-layer metric names, units and directions equal BENCHMARK.json");
}

void delay_is_attributed() {
  using perfbench::Ledger;
  constexpr auto kDelay = std::chrono::milliseconds(50);
  Ledger ledger;
  ledger.start();
  {
    Ledger::Scope outer(ledger, "svc.request");
    {
      Ledger::Scope layer(ledger, "netlist.compile");
      std::this_thread::sleep_for(kDelay);
    }
  }
  ledger.stop();
  const int64_t delay_ns = 50'000'000;
  const Ledger::Row compile = ledger.row("netlist.compile");
  const Ledger::Row outer = ledger.row("svc.request");
  check(compile.calls == 1 && compile.self_ns >= delay_ns,
        "a delay inside a layer span is that layer's self time");
  check(outer.self_ns < delay_ns / 10,
        "the enclosing span's self time excludes the child layer");
  check(ledger.residual_ns() < delay_ns / 10,
        "the residual excludes the delayed layer call");
  int64_t total = 0;
  for (const Ledger::Row& r : ledger.rows()) total += r.self_ns;
  check(total == ledger.wall_ns(), "layer rows plus residual sum to the wall");
}

}  // namespace

int main() {
  scripts_are_seeded();
  metric_names_match();
  delay_is_attributed();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
