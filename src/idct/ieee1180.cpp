#include "idct/ieee1180.hpp"

#include <cmath>
#include <sstream>

#include "base/rng.hpp"
#include "idct/reference.hpp"

namespace hlshc::idct {

ComplianceResult run_compliance_case(const IdctFunction& idct,
                                     const ComplianceCase& config) {
  ComplianceResult res;
  res.config = config;

  Ieee1180Rng rng(config.seed);
  double sum_err[kBlockSize] = {};
  double sum_sq[kBlockSize] = {};
  double peak = 0.0;

  for (int b = 0; b < config.blocks; ++b) {
    Block spatial{};
    for (int i = 0; i < kBlockSize; ++i) {
      long v = rng.next(config.range_low, config.range_high);
      spatial[static_cast<size_t>(i)] =
          static_cast<int32_t>(config.sign * v);
    }
    Block coeffs = forward_dct_reference(spatial);
    Block ref = idct_reference(coeffs);
    Block got = idct(coeffs);
    for (int i = 0; i < kBlockSize; ++i) {
      double e = static_cast<double>(got[static_cast<size_t>(i)]) -
                 static_cast<double>(ref[static_cast<size_t>(i)]);
      sum_err[i] += e;
      sum_sq[i] += e * e;
      peak = std::max(peak, std::fabs(e));
    }
  }

  const double n = static_cast<double>(config.blocks);
  double total_sq = 0.0, total_err = 0.0;
  for (int i = 0; i < kBlockSize; ++i) {
    double pmse = sum_sq[i] / n;
    double pme = std::fabs(sum_err[i] / n);
    res.worst_pmse = std::max(res.worst_pmse, pmse);
    res.worst_pme = std::max(res.worst_pme, pme);
    total_sq += sum_sq[i];
    total_err += sum_err[i];
  }
  res.peak_error = peak;
  res.omse = total_sq / (n * kBlockSize);
  res.ome = std::fabs(total_err / (n * kBlockSize));

  Block zeros{};
  Block zout = idct(zeros);
  res.zero_in_zero_out = (zout == Block{});

  std::ostringstream why;
  if (res.peak_error > 1.0) why << "peak error " << res.peak_error << " > 1; ";
  if (res.worst_pmse > 0.06) why << "pmse " << res.worst_pmse << " > 0.06; ";
  if (res.omse > 0.02) why << "omse " << res.omse << " > 0.02; ";
  if (res.worst_pme > 0.015) why << "pme " << res.worst_pme << " > 0.015; ";
  if (res.ome > 0.0015) why << "ome " << res.ome << " > 0.0015; ";
  if (!res.zero_in_zero_out) why << "zero block not preserved; ";
  res.failure = why.str();
  res.pass = res.failure.empty();
  return res;
}

std::vector<ComplianceResult> run_compliance_suite(const IdctFunction& idct,
                                                   int blocks) {
  std::vector<ComplianceResult> out;
  const long ranges[3][2] = {{256, 255}, {5, 5}, {300, 300}};
  for (const auto& r : ranges) {
    for (int sign : {+1, -1}) {
      ComplianceCase c;
      c.range_low = r[0];
      c.range_high = r[1];
      c.sign = sign;
      c.blocks = blocks;
      out.push_back(run_compliance_case(idct, c));
    }
  }
  return out;
}

}  // namespace hlshc::idct
