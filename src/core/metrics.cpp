#include "core/metrics.hpp"

#include "base/check.hpp"

namespace hlshc::core {

double automation_percent(double loc, double loc_verilog) {
  HLSHC_CHECK(loc_verilog > 0, "automation needs a Verilog baseline LOC");
  return (loc_verilog - loc) / loc_verilog * 100.0;
}

double controllability_percent(double phi_best, double phi_verilog_best) {
  HLSHC_CHECK(phi_verilog_best > 0, "controllability needs a baseline Phi");
  return phi_best / phi_verilog_best * 100.0;
}

double flexibility(double phi_best, double phi_initial, int delta_loc) {
  if (delta_loc <= 0) return 0.0;
  return (phi_best - phi_initial) / static_cast<double>(delta_loc);
}

}  // namespace hlshc::core
