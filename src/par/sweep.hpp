// par::SweepRunner — parallel evaluation of independent design points.
//
// The Fig. 1 scatter, Table II and the single-knob narrative benches
// (Vivado-HLS pragmas, XLS pipeline stages) all evaluate N configurations
// where each evaluation builds its own netlist, simulates and synthesizes
// it, and shares nothing with its neighbours. SweepRunner runs those
// evaluations over a par::Pool and collects the results **in input order**,
// so a parallel sweep emits byte-identical tables/CSV to the serial one —
// only the wall clock changes.
//
// When metrics are on, each sweep adds its points and wall time to the
// registry as par.sweep.<name>.points and par.sweep.<name>.wall_ns.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace hlshc::par {

class SweepRunner {
 public:
  /// `jobs` <= 0 selects default_jobs() (HLSHC_JOBS / hardware_concurrency).
  explicit SweepRunner(int jobs = 0) : pool_(jobs) {}

  int jobs() const { return pool_.jobs(); }

  /// Evaluates fn(i) for every i in [0, n) across the pool; results land in
  /// input order. `name` labels the sweep's trace span and metrics.
  template <typename R>
  std::vector<R> map(const std::string& name, int64_t n,
                     const std::function<R(int64_t)>& fn) {
    obs::Span span("sweep." + name, "par");
    span.arg("points", n).arg("jobs", static_cast<int64_t>(jobs()));
    const int64_t start_ns = obs::now_ns();
    std::vector<R> out = pool_.parallel_map<R>(n, fn);
    record(name, n, obs::now_ns() - start_ns);
    return out;
  }

 private:
  static void record(const std::string& name, int64_t n, int64_t ns);

  Pool pool_;
};

}  // namespace hlshc::par
