// hlshc_paper — regenerates the paper's tables, Fig. 1, the Section IV
// narratives, the ablations and the extensions, one per invocation:
//
//   hlshc_paper <table> [--jobs N] [table flags]
//
// --jobs N sets the worker count of the tables that sweep (default
// HLSHC_JOBS, else all cores); what a table prints is identical at any N.
// The table flags are table2 [--wide] [--verbose], workloads [NAME|all] and
// fault [sites] [--workload NAME|all]. An unknown table, an unknown flag or
// a flag the table does not take prints the usage and exits 2; a failed
// check inside a table exits 1. Speed is measured by perfbench
// (BENCHMARK.json), not here.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "base/check.hpp"
#include "paper.hpp"
#include "par/pool.hpp"

namespace {

namespace paper = hlshc::paper;

enum Flag : unsigned {
  kWide = 1,
  kVerbose = 2,
  kWorkload = 4,
  kSites = 8,  ///< a positional site count
  kName = 16,  ///< a positional workload name
};

struct Table {
  std::string_view name;
  unsigned flags;             ///< the Flag set the table takes besides --jobs
  std::string_view synopsis;  ///< those flags, for the usage text
  int (*run)(const paper::Args&);
};

constexpr Table kTables[] = {
    {"table1", 0, "", paper::table1},
    {"table2", kWide | kVerbose, " [--wide] [--verbose]", paper::table2},
    {"fig1", 0, "", paper::fig1},
    {"workloads", kName, " [NAME|all]", paper::workloads},
    {"progression", 0, "", paper::progression},
    {"chisel_width", 0, "", paper::chisel_width},
    {"bsv_sweep", 0, "", paper::bsv_sweep},
    {"xls_stages", 0, "", paper::xls_stages},
    {"maxj_kernels", 0, "", paper::maxj_kernels},
    {"bambu_sweep", 0, "", paper::bambu_sweep},
    {"vhls_pragmas", 0, "", paper::vhls_pragmas},
    {"ieee1180", 0, "", paper::ieee1180},
    {"ablation_costmodel", 0, "", paper::ablation_costmodel},
    {"ablation_sched", 0, "", paper::ablation_sched},
    {"passes", 0, "", paper::passes},
    {"extension_mixed", 0, "", paper::extension_mixed},
    {"fault", kSites | kWorkload, " [sites] [--workload NAME|all]",
     paper::fault},
};

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "hlshc_paper: %s\n", error.c_str());
  std::fputs("usage: hlshc_paper <table> [--jobs N] [table flags]\ntables:\n",
             stderr);
  for (const Table& t : kTables)
    std::fprintf(stderr, "  %s%s\n", t.name.data(), t.synopsis.data());
  std::exit(2);
}

int parse_sites(std::string_view text) {
  int sites = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), sites);
  if (ec != std::errc() || end != text.data() + text.size() || sites <= 0)
    usage("sites must be a positive integer, got '" + std::string(text) + "'");
  return sites;
}

paper::Args parse(const Table& table, int argc, char** argv) {
  paper::Args args;
  if (table.flags & kName) args.workload = "all";
  bool positional = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto takes = [&](unsigned flag) { return (table.flags & flag) != 0; };
    const bool bare = !arg.starts_with('-') && !positional;
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--jobs") {
      args.jobs = hlshc::par::parse_jobs(value(), "--jobs");
    } else if (arg == "--wide" && takes(kWide)) {
      args.wide = true;
    } else if (arg == "--verbose" && takes(kVerbose)) {
      args.verbose = true;
    } else if (arg == "--workload" && takes(kWorkload)) {
      args.workload = value();
    } else if (bare && takes(kSites)) {
      args.sites = parse_sites(arg);
      positional = true;
    } else if (bare && takes(kName)) {
      args.workload = arg;
      positional = true;
    } else {
      usage(std::string(table.name) + " does not take '" + std::string(arg) +
            "'");
    }
  }
  if (args.jobs == 0) args.jobs = hlshc::par::default_jobs();
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("");
  const Table* table = nullptr;
  for (const Table& t : kTables)
    if (t.name == argv[1]) table = &t;
  if (table == nullptr) usage("unknown table '" + std::string(argv[1]) + "'");
  paper::Args args;
  try {
    args = parse(*table, argc, argv);
  } catch (const hlshc::Error& e) {  // a malformed --jobs or HLSHC_JOBS
    usage(e.what());
  }
  try {
    return table->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
