// perfbench — the repository benchmark.
//
//   perfbench --workload dse|svc_mix|campaign --seed N --seconds S
//             --trace 0|1 [--out DIR]
//   perfbench --pin dse|campaign       regenerate a pinned-output file
//   perfbench --setup-only WORKLOAD    print one process's set-up seconds
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A pinned
// output mismatch makes the run exit 1.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "host.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_EXPECTED_DIR
#error "PERFBENCH_EXPECTED_DIR must name the pinned-output directory"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dse|svc_mix|campaign "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       perfbench --pin dse|campaign\n"
               "       perfbench --setup-only dse|svc_mix|campaign\n",
               why);
  return 2;
}

bool parse_int(const char* s, long min, long max, long* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

namespace perfbench {

double measure_setup(const std::string& workload) {
  if (workload == "dse") return dse_setup();
  if (workload == "svc_mix") return svc_mix_setup();
  if (workload == "campaign") return campaign_setup();
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  o.expected_dir = PERFBENCH_EXPECTED_DIR;
  o.out_dir = ".";
  std::string pin, setup_only;
  long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload")
      o.workload = v;
    else if (a == "--seed" && parse_int(v, 0, (1L << 62), &seed))
      o.seed = static_cast<uint64_t>(seed);
    else if (a == "--seconds" && parse_int(v, 1, 600, &seconds))
      o.seconds = static_cast<int>(seconds);
    else if (a == "--trace" && parse_int(v, 0, 1, &trace))
      o.traced = trace == 1;
    else if (a == "--out")
      o.out_dir = v;
    else if (a == "--pin")
      pin = v;
    else if (a == "--setup-only")
      setup_only = v;
    else
      return usage(("bad argument " + a + " " + v).c_str());
  }

  try {
    if (!pin.empty()) {
      if (pin == "dse")
        pin_dse(o.expected_dir + "/dse.tsv");
      else if (pin == "campaign")
        pin_campaign(o.expected_dir + "/campaign.tsv");
      else
        return usage("--pin takes dse or campaign");
      return 0;
    }
    if (!setup_only.empty()) {
      std::printf("%.9g\n", measure_setup(setup_only));
      return 0;
    }
    if (seed < 0 || seconds < 0 || trace < 0)
      return usage("--workload, --seed, --seconds and --trace are required");
    std::filesystem::create_directories(o.out_dir);

    Outcome out;
    if (o.workload == "dse")
      out = run_dse(o);
    else if (o.workload == "svc_mix")
      out = run_svc_mix(o);
    else if (o.workload == "campaign")
      out = run_campaign(o);
    else
      return usage(("unknown workload '" + o.workload + "'").c_str());

    if (!o.traced)
      out.metrics["setup_s"] =
          median(run_children(kSetupChildren, {"--setup-only", o.workload}));

    // Per-layer metrics of layers the workload never calls read 0; a
    // missing end-to-end metric is a benchmark bug (result_json throws).
    std::vector<std::string> idle;
    if (o.traced)
      for (const MetricDef& d : per_layer_metrics())
        if (!out.metrics.count(d.name)) {
          out.metrics[d.name] = 0.0;
          idle.push_back(d.name);
        }

    const std::string result = result_json(out, o.traced);
    std::cout << "perfbench " << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << trace << '\n'
              << "host: " << host_facts() << '\n';
    for (const std::string& line : out.lines) std::cout << line << '\n';
    std::cout << "failed " << out.failed << " of " << out.attempted
              << " operations";
    if (out.attempted > 0)
      std::cout << " (failed_frac " << static_cast<double>(out.failed) / out.attempted
                << ")";
    std::cout << '\n';
    for (const auto& [c, n] : out.failure_causes)
      std::cout << "  failure x" << n << ": " << c << '\n';
    if (!idle.empty()) {
      std::cout << "layers this workload does not exercise (reported as 0):";
      for (const std::string& n : idle) std::cout << ' ' << n;
      std::cout << '\n';
    }
    const auto& defs = o.traced ? per_layer_metrics() : end_to_end_metrics();
    for (const MetricDef& d : defs) {
      std::cout << "  " << d.name << " = " << out.metrics.at(d.name) << ' '
                << d.unit;
      if (!d.moves.empty()) std::cout << "   (moves " << d.moves << ')';
      std::cout << '\n';
    }
    for (const std::string& m : out.mismatches)
      std::cout << "PINNED OUTPUT MISMATCH: " << m << '\n';
    std::cout << result << std::endl;
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
