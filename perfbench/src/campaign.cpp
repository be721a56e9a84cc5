// The `campaign` workload: a seeded sequence of fault-campaign operations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "fault/model.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/metrics.hpp"
#include "script.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hc = hlshc;

namespace {

constexpr int kRounds = 4;
// Host seconds one round of the catalogue takes on the reference 4-vCPU
// host. A run classifies a whole number of rounds fixed by --seconds, not
// by the clock, so its operations (and failures) never depend on the
// host's speed.
constexpr double kRoundSeconds = 25.0;

size_t rounds_for(int seconds) {
  return static_cast<size_t>(
      std::clamp(std::lround(seconds / kRoundSeconds), 1L, long{kRounds}));
}

/// One compiled campaign target with the sites of every catalogue entry.
struct Target {
  const hc::workload::WorkloadSpec* spec = nullptr;
  hc::netlist::Design design;
  std::map<std::pair<std::string, uint64_t>, std::vector<hc::fault::FaultSite>>
      sites;  ///< by (kind, site seed)
};

std::string op_key(const CampaignOp& op) {
  return op.design + ' ' + op.kind + ' ' + std::to_string(op.site_seed);
}

std::string counts_text(const hc::fault::CampaignCounts& c) {
  std::ostringstream out;
  out << c.masked << ' ' << c.sdc << ' ' << c.detected << ' ' << c.hang;
  return out.str();
}

/// Builds, compiles and plans every campaign design and samples the sites
/// of every catalogue entry. Traced when `L` is given.
std::map<std::string, Target> prepare(Layers* L) {
  const auto& reg = hc::workload::Registry::instance();
  std::map<std::string, Target> targets;
  for (const std::string& name : campaign_designs()) {
    const size_t dot = name.find('.');
    const hc::workload::WorkloadSpec& spec = reg.get(name.substr(0, dot));
    const hc::workload::BuilderInfo& b = spec.builder(name.substr(dot + 1));
    hc::netlist::Design design =
        L ? L->compile(L->build(b.flow, b.build), {}).design
          : hc::tools::compile(b.build()).design;
    if (L)
      L->plan(design);
    else
      hc::netlist::ExecPlan::for_design(design);
    targets.emplace(name, Target{&spec, std::move(design), {}});
  }
  for (const CampaignOp& op : campaign_catalogue()) {
    Target& t = targets.at(op.design);
    t.sites[{op.kind, op.site_seed}] =
        op.kind == "seu"
            ? hc::fault::sample_seu_sites(t.design, kCampaignSites, kSeuMaxCycle,
                                          op.site_seed)
            : hc::fault::sample_stuck_sites(t.design, kCampaignSites,
                                            op.site_seed);
  }
  return targets;
}

hc::fault::CampaignOptions campaign_options(int jobs) {
  hc::fault::CampaignOptions co;
  co.jobs = jobs;
  co.progress_every = 0;
  co.keep_runs = false;
  return co;
}

std::map<std::string, std::string> load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing pinned campaign outcomes " + path);
  std::map<std::string, std::string> pins;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    pins[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return pins;
}

struct KindTotals {
  int64_t ops = 0, sites = 0, hangs = 0;
  double ns = 0;
};

}  // namespace

double campaign_setup() {
  return seconds_of([] { prepare(nullptr); });
}

Outcome run_campaign(const RunOptions& o) {
  Outcome out;
  const auto pins = load_pins(o.expected_dir + "/campaign.tsv");
  if (pins.size() != campaign_catalogue().size())
    throw std::runtime_error("campaign.tsv does not pin the whole catalogue");

  Layers L;
  std::map<std::string, Target> targets;
  if (o.traced) {
    hc::obs::set_enabled(true);  // the fault.* lane counters
    L.ledger.start();
    targets = prepare(&L);
  } else {
    targets = prepare(nullptr);
  }
  auto& registry = hc::obs::registry();
  const int64_t masked0 = registry.counter("fault.lanes_masked")->value();
  const int64_t refills0 = registry.counter("fault.lane_refills")->value();

  const std::vector<CampaignOp> script = campaign_script(o.seed, kRounds);
  std::vector<double> latency_ms;
  int64_t classified = 0, unpinned = 0;
  std::map<std::string, KindTotals> kinds;
  std::map<int, KindTotals> by_jobs;
  // Whole rounds: every run classifies the same catalogue, and only the order
  // (and the jobs each operation runs at) follows the seed.
  const size_t ops = rounds_for(o.seconds) * campaign_catalogue().size();
  const int64_t begin = now_ns();
  for (size_t i = 0; i < ops; ++i) {
    const CampaignOp& op = script[i];
    const Target& t = targets.at(op.design);
    const auto& sites = t.sites.at({op.kind, op.site_seed});
    const std::string& pin = pins.at(op_key(op));
    ++out.attempted;
    const int64_t t0 = now_ns();
    try {
      const hc::fault::CampaignReport r =
          o.traced ? L.campaign(op.kind, t.design, *t.spec, sites,
                                campaign_options(op.jobs))
                   : hc::fault::run_campaign(t.design, *t.spec, sites,
                                             campaign_options(op.jobs));
      const double ns = static_cast<double>(now_ns() - t0);
      latency_ms.push_back(ns / 1e6);
      classified += r.counts.total();
      for (KindTotals* k : {&kinds[op.kind], &by_jobs[op.jobs]}) {
        ++k->ops;
        k->sites += r.counts.total();
        k->hangs += r.counts.hang;
        k->ns += ns;
      }
      if (pin == "error")
        ++unpinned;
      else if (pin != counts_text(r.counts))
        out.mismatch(op_key(op) + ": counts " + counts_text(r.counts) +
                     ", pinned " + pin);
    } catch (const std::exception& e) {
      const double ns = static_cast<double>(now_ns() - t0);
      latency_ms.push_back(ns / 1e6);
      for (KindTotals* k : {&kinds[op.kind], &by_jobs[op.jobs]}) {
        ++k->ops;
        k->ns += ns;
      }
      out.fail(cause(op.design + ' ' + op.kind, e.what()));
    }
  }
  const double wall_s = (now_ns() - begin) / 1e9;

  char buf[240];
  std::snprintf(buf, sizeof buf,
                "campaign: %lld ops (%d sites each, default lanes) in %.2f s: "
                "faults_per_s %.1f; failed_frac %.4f; %lld ops ran where the "
                "pin records an error",
                static_cast<long long>(out.attempted), kCampaignSites, wall_s,
                classified / wall_s,
                static_cast<double>(out.failed) / out.attempted,
                static_cast<long long>(unpinned));
  out.lines.push_back(buf);
  for (const auto& [kind, k] : kinds) {
    std::snprintf(buf, sizeof buf,
                  "  %-5s ops=%lld sites=%lld hangs=%lld time=%.2f s",
                  kind.c_str(), static_cast<long long>(k.ops),
                  static_cast<long long>(k.sites),
                  static_cast<long long>(k.hangs), k.ns / 1e9);
    out.lines.push_back(buf);
  }
  std::snprintf(buf, sizeof buf,
                "  latency_p50_ms %.2f (n=%zu, %zu beyond); latency_p90_ms "
                "%.2f (n=%zu, %zu beyond)",
                percentile(latency_ms, 0.5), latency_ms.size(),
                samples_beyond(latency_ms.size(), 0.5),
                percentile(latency_ms, 0.9), latency_ms.size(),
                samples_beyond(latency_ms.size(), 0.9));
  out.lines.push_back(buf);

  if (!o.traced) {
    out.metrics["ops_per_s"] = classified / wall_s;
    out.metrics["latency_p50_ms"] = percentile(latency_ms, 0.5);
    out.metrics["latency_tail_ms"] = percentile(latency_ms, 0.9);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  L.ledger.stop();
  L.report(out, o.out_dir + "/spans-campaign.jsonl");
  auto& m = out.metrics;
  for (const char* kind : {"seu", "stuck"}) {
    const KindTotals& k = kinds[kind];
    m[std::string("fault.sites_per_s.") + kind] =
        k.ns > 0 ? k.sites * 1e9 / k.ns : 0.0;
  }
  m["fault.hang_frac"] =
      classified > 0
          ? static_cast<double>(kinds["seu"].hangs + kinds["stuck"].hangs) /
                classified
          : 0.0;
  const int64_t masked =
      registry.counter("fault.lanes_masked")->value() - masked0;
  const int64_t refills =
      registry.counter("fault.lane_refills")->value() - refills0;
  m["fault.lanes_idle_frac"] =
      classified > 0 ? static_cast<double>(masked) / classified : 0.0;
  m["fault.lane_refills"] =
      static_cast<double>(refills) / static_cast<double>(out.attempted);
  const KindTotals& j1 = by_jobs[1];
  const KindTotals& j2 = by_jobs[2];
  m["fault.jobs2_per_core_ratio"] =
      j1.sites > 0 && j2.ns > 0
          ? (j2.sites / j2.ns / 2.0) / (j1.sites / j1.ns)
          : 0.0;
  std::snprintf(buf, sizeof buf,
                "lanes: %lld masked early, %lld refills; jobs=1 %.1f sites/s, "
                "jobs=2 %.1f sites/s (%.1f per core)",
                static_cast<long long>(masked), static_cast<long long>(refills),
                j1.ns > 0 ? j1.sites * 1e9 / j1.ns : 0.0,
                j2.ns > 0 ? j2.sites * 1e9 / j2.ns : 0.0,
                j2.ns > 0 ? j2.sites * 1e9 / j2.ns / 2 : 0.0);
  out.lines.push_back(buf);
  return out;
}

void pin_campaign(const std::string& path) {
  const std::map<std::string, Target> targets = prepare(nullptr);
  std::ofstream out(path);
  out << "# design kind site_seed\tmasked sdc detected hang (or error) -- "
         "fault::run_campaign at lanes=1 jobs=1, regenerate with: perfbench "
         "--pin campaign\n";
  for (const CampaignOp& op : campaign_catalogue()) {
    const Target& t = targets.at(op.design);
    hc::fault::CampaignOptions co = campaign_options(1);
    co.lanes = 1;
    std::string result;
    try {
      result = counts_text(
          hc::fault::run_campaign(t.design, *t.spec,
                                  t.sites.at({op.kind, op.site_seed}), co)
              .counts);
    } catch (const std::exception&) {
      result = "error";
    }
    out << op_key(op) << '\t' << result << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
