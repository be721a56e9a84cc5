// The paper's evaluation metrics (Section III.A).
//
//   L  — lines of code including tool settings (core/loc.hpp);
//   P  — throughput in operations per second (ν_max / T_P);
//   A  — normalized area N*_LUT + N*_FF with DSP mapping disabled;
//   Q  — quality, P / A, the default optimization criterion Φ;
//   α  — degree of automation, Eq. (1): (L_V - L)/L_V x 100%;
//   C_Φ — controllability, Eq. (2): Φ*/Φ*_V x 100%;
//   F_Φ — flexibility, Eq. (3): (Φ* - Φ0)/ΔL.
#pragma once

namespace hlshc::core {

/// Eq. (1). `loc_verilog` is L_V (the Verilog description of the same
/// design point). Negative results are legal (more code than Verilog).
double automation_percent(double loc, double loc_verilog);

/// Eq. (2), in percent. `phi_best` is the tool's best Φ, `phi_verilog_best`
/// the Verilog maximum.
double controllability_percent(double phi_best, double phi_verilog_best);

/// Eq. (3). `delta_loc` = ΔL+ + ΔL- between the initial and optimal
/// sources (including options). Returns 0 when nothing was changed.
double flexibility(double phi_best, double phi_initial, int delta_loc);

}  // namespace hlshc::core
