// Parallel execution layer tests: pool lifecycle and clamping, HLSHC_JOBS
// resolution, full index coverage, inline single-job semantics, exception
// propagation (and pool reuse afterwards), input-order parallel_map — plus
// the campaign differential: a 200-site SEU campaign must classify
// identically at jobs 1, 2 and 8, counts and per-run log alike — and DSE
// sweep points equal bit for bit at jobs 1 and 4.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "par/sweep.hpp"
#include "rtl/designs.hpp"
#include "tools/flows.hpp"

namespace hlshc::par {
namespace {

/// Scoped HLSHC_JOBS override (default_jobs re-reads the environment on
/// every call, so setenv/unsetenv is all a test needs).
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    const char* old = std::getenv("HLSHC_JOBS");
    if (old) saved_ = old;
    had_ = old != nullptr;
    if (value)
      ::setenv("HLSHC_JOBS", value, 1);
    else
      ::unsetenv("HLSHC_JOBS");
  }
  ~ScopedJobsEnv() {
    if (had_)
      ::setenv("HLSHC_JOBS", saved_.c_str(), 1);
    else
      ::unsetenv("HLSHC_JOBS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(DefaultJobs, ReadsEnvironment) {
  {
    ScopedJobsEnv env("3");
    EXPECT_EQ(default_jobs(), 3);
  }
  {
    ScopedJobsEnv env("999");  // clamped to a sane ceiling
    EXPECT_EQ(default_jobs(), 256);
  }
  {
    ScopedJobsEnv env("0");  // non-positive: rejected loudly
    EXPECT_THROW(default_jobs(), Error);
  }
  {
    ScopedJobsEnv env("8cores");  // trailing junk: rejected loudly
    EXPECT_THROW(default_jobs(), Error);
  }
  {
    ScopedJobsEnv env(nullptr);
    EXPECT_GE(default_jobs(), 1);
  }
}

/// Scoped HLSHC_LANES override, same contract as ScopedJobsEnv.
class ScopedLanesEnv {
 public:
  explicit ScopedLanesEnv(const char* value) {
    const char* old = std::getenv("HLSHC_LANES");
    if (old) saved_ = old;
    had_ = old != nullptr;
    if (value)
      ::setenv("HLSHC_LANES", value, 1);
    else
      ::unsetenv("HLSHC_LANES");
  }
  ~ScopedLanesEnv() {
    if (had_)
      ::setenv("HLSHC_LANES", saved_.c_str(), 1);
    else
      ::unsetenv("HLSHC_LANES");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(DefaultLanes, ReadsEnvironmentElseFixedDefault) {
  {
    ScopedLanesEnv env("4");
    EXPECT_EQ(default_lanes(), 4);
  }
  {
    ScopedLanesEnv env("999");  // clamped to the lane ceiling
    EXPECT_EQ(default_lanes(), kMaxLanes);
  }
  {
    ScopedLanesEnv env("0");  // non-positive: rejected loudly
    EXPECT_THROW(default_lanes(), Error);
  }
  {
    // Unset: the fixed default, NOT hardware-derived — batched campaign
    // shapes must be reproducible across hosts.
    ScopedLanesEnv env(nullptr);
    EXPECT_EQ(default_lanes(), kDefaultLanes);
  }
}

// Same validation contract as parse_jobs, for the lanes knobs
// (HLSHC_LANES, every bench's --lanes flag).
TEST(ParseLanes, AcceptsPositiveDecimalAndClamps) {
  EXPECT_EQ(parse_lanes("1", "--lanes"), 1);
  EXPECT_EQ(parse_lanes("32", "--lanes"), 32);
  EXPECT_EQ(parse_lanes("64", "--lanes"), 64);
  EXPECT_EQ(parse_lanes("65", "--lanes"), kMaxLanes);
  EXPECT_EQ(parse_lanes("100000", "HLSHC_LANES"), kMaxLanes);
}

TEST(ParseLanes, RejectsGarbageWithTheKnobName) {
  for (const char* bad :
       {"", "0", "-1", "-8", "8lanes", " 8", "8 ", "3.5", "0x8"}) {
    try {
      parse_lanes(bad, "--lanes");
      FAIL() << "parse_lanes accepted '" << bad << '\'';
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--lanes"), std::string::npos)
          << "error for '" << bad << "' does not name the knob: " << e.what();
    }
  }
}

// One shared validator for every jobs knob (HLSHC_JOBS, --jobs flags, the
// service's --queue): positive decimal integers only, clamped at kMaxJobs,
// everything else a structured error naming the offending knob.
TEST(ParseJobs, AcceptsPositiveDecimal) {
  EXPECT_EQ(parse_jobs("1", "--jobs"), 1);
  EXPECT_EQ(parse_jobs("8", "--jobs"), 8);
  EXPECT_EQ(parse_jobs("256", "--jobs"), 256);
}

TEST(ParseJobs, ClampsAboveCeiling) {
  EXPECT_EQ(parse_jobs("999", "--jobs"), kMaxJobs);
  EXPECT_EQ(parse_jobs("100000", "HLSHC_JOBS"), kMaxJobs);
}

TEST(ParseJobs, RejectsGarbageWithTheKnobName) {
  for (const char* bad : {"", "0", "-1", "-8", "8cores", "cores8", " 8",
                          "8 ", "3.5", "0x8", "+", "nan"}) {
    try {
      parse_jobs(bad, "--jobs");
      FAIL() << "parse_jobs accepted '" << bad << '\'';
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
          << "error for '" << bad << "' does not name the knob: " << e.what();
    }
  }
}

TEST(Pool, JobsClampAndDefault) {
  ScopedJobsEnv env("5");
  EXPECT_EQ(Pool(0).jobs(), 5);
  EXPECT_EQ(Pool(-2).jobs(), 5);
  EXPECT_EQ(Pool(1).jobs(), 1);
  EXPECT_EQ(Pool(4).jobs(), 4);
}

TEST(Pool, ParallelForCoversEveryIndexExactlyOnce) {
  Pool pool(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(kN, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST(Pool, EmptyRangeRunsNothing) {
  Pool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](int64_t) { calls.fetch_add(1); });
  pool.parallel_for(-5, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Pool, SingleJobRunsInlineInOrder) {
  Pool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  pool.parallel_for(100, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronization needed: same thread
  });
  std::vector<int64_t> expect(100);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(Pool, ExceptionPropagatesAndPoolIsReusable) {
  Pool pool(4);
  EXPECT_THROW(
      pool.parallel_for(500,
                        [&](int64_t i) {
                          if (i == 257) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive a failed loop: run a clean one right after.
  std::atomic<int64_t> sum{0};
  pool.parallel_for(100, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(Pool, ParallelMapKeepsInputOrder) {
  Pool pool(8);
  std::vector<int64_t> out = pool.parallel_map<int64_t>(
      777, [](int64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 777u);
  for (int64_t i = 0; i < 777; ++i)
    ASSERT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(Pool, WorkerIdsStayInRange) {
  Pool pool(4);
  std::vector<std::atomic<int64_t>> per_worker(4);
  for (auto& c : per_worker) c.store(0);
  pool.parallel_for_worker(1000, [&](int worker, int64_t) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    per_worker[static_cast<size_t>(worker)].fetch_add(1);
  });
  int64_t total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 1000);
}

TEST(SweepRunner, MapCollectsInOrderAndCountsSweeps) {
  obs::Registry& reg = obs::registry();
  const int64_t alpha0 = reg.counter("par.sweep.alpha.points")->value();
  const int64_t beta0 = reg.counter("par.sweep.beta.points")->value();
  const int64_t walls0 = reg.timer("par.sweep.alpha.wall_ns")->count();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  SweepRunner runner(4);
  auto a = runner.map<int>("alpha", 10, [](int64_t i) {
    return static_cast<int>(i) + 1;
  });
  auto b = runner.map<int>("beta", 5, [](int64_t i) {
    return static_cast<int>(i) * 2;
  });
  obs::set_enabled(was_enabled);
  EXPECT_EQ(a[9], 10);
  EXPECT_EQ(b[4], 8);
  EXPECT_EQ(reg.counter("par.sweep.alpha.points")->value(), alpha0 + 10);
  EXPECT_EQ(reg.counter("par.sweep.beta.points")->value(), beta0 + 5);
  EXPECT_EQ(reg.timer("par.sweep.alpha.wall_ns")->count(), walls0 + 1);
}

// Serial == parallel on real sweep tasks: the Verilog and Chisel flows' DSE
// points through a SweepRunner at jobs 1 and 4, equal bit for bit.
TEST(SweepRunner, ParallelDsePointsEqualSerialBitwise) {
  std::vector<tools::SweepTask> tasks;
  for (const auto& flow : tools::make_flows())
    if (flow->family() == "verilog" || flow->family() == "chisel")
      for (tools::SweepTask& t : flow->sweep_tasks())
        tasks.push_back(std::move(t));
  ASSERT_EQ(tasks.size(), 11u);
  auto sweep = [&tasks](int jobs) {
    SweepRunner runner(jobs);
    return runner.map<core::ScatterPoint>(
        "dse_parity", static_cast<int64_t>(tasks.size()),
        [&tasks](int64_t i) { return tasks[static_cast<size_t>(i)].run(); });
  };
  const std::vector<core::ScatterPoint> serial = sweep(1);
  const std::vector<core::ScatterPoint> parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const core::ScatterPoint& s = serial[i];
    const core::ScatterPoint& p = parallel[i];
    EXPECT_EQ(s.family, p.family) << i;
    EXPECT_EQ(s.config, p.config) << i;
    EXPECT_EQ(s.workload, p.workload) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(s.throughput_mops),
              std::bit_cast<uint64_t>(p.throughput_mops))
        << s.family << ' ' << s.config;
    EXPECT_EQ(s.area, p.area) << s.family << ' ' << s.config;
    EXPECT_EQ(s.nodes_saved, p.nodes_saved) << s.family << ' ' << s.config;
  }
}

// ---- campaign differential -------------------------------------------------

fault::CampaignReport campaign_at(const netlist::Design& d,
                                  const std::vector<fault::FaultSite>& sites,
                                  int jobs) {
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.keep_runs = true;
  opts.progress_every = 0;
  opts.jobs = jobs;
  return fault::run_campaign(
      d, workload::Registry::instance().get("idct"), sites, opts);
}

/// The tentpole invariant: classification results are bitwise identical at
/// any worker count — counts and the site-ordered run log.
TEST(CampaignParallel, DifferentialJobs128) {
  netlist::Design d = rtl::build_verilog_opt2();
  auto sites = fault::sample_seu_sites(d, 200, 60, 2026);
  fault::CampaignReport serial = campaign_at(d, sites, 1);
  ASSERT_EQ(serial.runs.size(), 200u);

  for (int jobs : {2, 8}) {
    fault::CampaignReport parallel = campaign_at(d, sites, jobs);
    EXPECT_EQ(parallel.counts.masked, serial.counts.masked) << jobs;
    EXPECT_EQ(parallel.counts.sdc, serial.counts.sdc) << jobs;
    EXPECT_EQ(parallel.counts.detected, serial.counts.detected) << jobs;
    EXPECT_EQ(parallel.counts.hang, serial.counts.hang) << jobs;
    ASSERT_EQ(parallel.runs.size(), serial.runs.size()) << jobs;
    for (size_t i = 0; i < serial.runs.size(); ++i) {
      EXPECT_EQ(parallel.runs[i].outcome, serial.runs[i].outcome)
          << "jobs=" << jobs << " site " << i;
      EXPECT_EQ(parallel.runs[i].site.to_string(),
                serial.runs[i].site.to_string())
          << "jobs=" << jobs << " site " << i;
    }
    EXPECT_EQ(parallel.reference_functional, serial.reference_functional);
  }
}

TEST(CampaignParallel, ProgressReportsCompletedCounts) {
  netlist::Design d = rtl::build_verilog_opt2();
  auto sites = fault::sample_seu_sites(d, 60, 60, 7);
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.keep_runs = false;
  opts.progress_every = 10;
  opts.jobs = 4;
  std::mutex mutex;
  std::multiset<int> ticks;
  opts.on_progress = [&](const fault::CampaignProgress& p) {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(p.total, 60);
    EXPECT_EQ(p.completed % 10, 0);
    ticks.insert(p.completed);
  };
  fault::run_campaign(d, workload::Registry::instance().get("idct"), sites,
                      opts);
  // Every completion count fires exactly once (the counter is atomic, so
  // each multiple of the cadence is observed by exactly one worker).
  EXPECT_EQ(ticks, (std::multiset<int>{10, 20, 30, 40, 50, 60}));
}

/// Sharding invariance of the site sampler: each site derives its RNG from
/// (seed, index), so the sampled list is independent of how many sites are
/// requested before it.
TEST(CampaignParallel, SampledSitesArePrefixStable) {
  netlist::Design d = rtl::build_verilog_opt2();
  auto small = fault::sample_seu_sites(d, 50, 60, 11);
  auto large = fault::sample_seu_sites(d, 200, 60, 11);
  for (size_t i = 0; i < small.size(); ++i)
    EXPECT_EQ(small[i].to_string(), large[i].to_string()) << i;
}

}  // namespace
}  // namespace hlshc::par
