#include "par/sweep.hpp"

#include "obs/metrics.hpp"

namespace hlshc::par {

void SweepRunner::record(const std::string& name, int64_t n, int64_t ns) {
  if (obs::enabled()) {
    obs::registry().counter("par.sweep." + name + ".points")->add(n);
    obs::registry().timer("par.sweep." + name + ".wall_ns")->record_ns(ns);
  }
}

}  // namespace hlshc::par
