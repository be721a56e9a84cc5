// IEEE Std 1180-1990 compliance: the full 10,000-block procedure for every
// input range and sign, run against the ISO 13818-4 fixed-point IDCT (the
// algorithm every hardware design in this repository implements). All
// implementations are IEEE 1180-compliant, as the paper states. This is the
// one table that calls the software model directly: it checks the C kernel
// itself against the standard, not a hardware design.
#include <cstdio>

#include "base/strings.hpp"
#include "idct/chenwang.hpp"
#include "idct/ieee1180.hpp"
#include "paper.hpp"

namespace hlshc::paper {

int ieee1180(const Args&) {
  using namespace idct;
  std::puts("=== IEEE 1180-1990 compliance (10,000 blocks per case) ===\n");
  auto suite = run_compliance_suite(
      [](const Block& in) {
        Block b = in;
        idct_2d(b);
        return b;
      },
      10000);

  std::puts("range        sign  peak|e|  worst pmse  omse      worst pme  "
            "ome        zero  verdict");
  bool all = true;
  for (const auto& r : suite) {
    std::printf("(-%3ld,%3ld)   %+d    %s     %s      %s    %s   %s   %s   %s\n",
                r.config.range_high, r.config.range_low, r.config.sign,
                format_fixed(r.peak_error, 1).c_str(),
                format_fixed(r.worst_pmse, 4).c_str(),
                format_fixed(r.omse, 4).c_str(),
                format_fixed(r.worst_pme, 4).c_str(),
                format_fixed(r.ome, 5).c_str(),
                r.zero_in_zero_out ? "ok" : "FAIL",
                r.pass ? "PASS" : "FAIL");
    all = all && r.pass;
  }
  std::printf("\noverall: %s (thresholds: |e|<=1, pmse<=0.06, omse<=0.02, "
              "pme<=0.015, ome<=0.0015)\n",
              all ? "IEEE 1180-1990 COMPLIANT" : "NON-COMPLIANT");
  return all ? 0 : 1;
}

}  // namespace hlshc::paper
