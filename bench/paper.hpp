// hlshc_paper's tables: each paper table, figure, narrative, ablation and
// extension is one function over the flags hlshc_paper.cpp parsed. Every
// table prints to stdout only what the code computes (no timings, no host
// facts), so its output diffs bitwise against tests/golden/.
#pragma once

#include <string>

namespace hlshc::paper {

struct Args {
  int jobs = 0;                   ///< --jobs; the parser resolves 0
  bool wide = false;              ///< table2 --wide
  bool verbose = false;           ///< table2 --verbose
  std::string workload = "idct";  ///< fault --workload, workloads NAME
  int sites = 1000;               ///< fault [sites]
};

// Paper artifacts (tables.cpp).
int table1(const Args&);
int table2(const Args&);
int fig1(const Args&);
int workloads(const Args&);
// Section IV narratives (narratives.cpp).
int progression(const Args&);
int chisel_width(const Args&);
int bsv_sweep(const Args&);
int xls_stages(const Args&);
int maxj_kernels(const Args&);
int bambu_sweep(const Args&);
int vhls_pragmas(const Args&);
// IEEE 1180-1990 compliance of the software IDCT (ieee1180.cpp).
int ieee1180(const Args&);
// Ablations (ablations.cpp).
int ablation_costmodel(const Args&);
int ablation_sched(const Args&);
int passes(const Args&);
// Extensions beyond the paper (extensions.cpp).
int extension_mixed(const Args&);
int fault(const Args&);

}  // namespace hlshc::paper
