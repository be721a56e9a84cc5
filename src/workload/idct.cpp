// The inverse DCT — the paper's original benchmark, now the registry's
// first entry. The builders here are exactly the designs the paper's
// Table II rows come from: the refactor moved them behind the registry
// without touching them, so the registered "idct" path reproduces the
// pre-registry Table II bit for bit. The stimulus and reference hooks
// replicate the historical core::evaluate_axis_design and IEEE 1180
// campaign-input loops exactly (same RNG, same draw order).
#include "workload/kernels.hpp"

#include "bsv/designs.hpp"
#include "chisel/designs.hpp"
#include "hls/tool.hpp"
#include "idct/chenwang.hpp"
#include "idct/reference.hpp"
#include "rtl/designs.hpp"
#include "xls/designs.hpp"

namespace hlshc::workload {

namespace {

netlist::Design build_bambu_default() {
  return hls::compile_bambu(hls::idct_source(), {}).design;
}

netlist::Design build_bambu_perf() {
  hls::BambuOptions o;
  o.preset = hls::BambuPreset::kPerformanceMp;
  o.speculative_sdc = true;
  return hls::compile_bambu(hls::idct_source(), o).design;
}

netlist::Design build_vhls_pushbutton() {
  return hls::compile_vhls(hls::idct_source(), {}).design;
}

netlist::Design build_vhls_pragmas() {
  hls::VhlsOptions o;
  o.pragmas = true;
  o.pipeline_stages = 1;
  return hls::compile_vhls(hls::idct_source(), o).design;
}

}  // namespace

WorkloadSpec make_idct_spec() {
  WorkloadSpec spec;
  spec.name = "idct";
  spec.description =
      "8x8 inverse DCT (Chen/Wang fixed point), 12-bit coefficients in, "
      "9-bit samples out";
  spec.out_width = 9;
  spec.full_range_safe = false;  // narrow-width builders need realistic data

  spec.reference = [](const Frame& in) {
    Frame out = in;
    idct::idct_2d(out);
    return out;
  };
  spec.encode = [](const Frame& spatial) {
    return idct::forward_dct_reference(spatial);
  };
  spec.eval_stimulus = [](SplitMix64& rng, bool realistic) {
    Frame b{};
    if (realistic) {
      Frame spatial{};
      for (auto& v : spatial) v = static_cast<int32_t>(rng.next_in(-256, 255));
      b = idct::forward_dct_reference(spatial);
    } else {
      for (auto& v : b)
        v = static_cast<int32_t>(
            rng.next_in(idct::kCoeffMin, idct::kCoeffMax));
    }
    return b;
  };
  spec.campaign_inputs = [](int matrices, long seed) {
    Ieee1180Rng rng(seed);
    std::vector<Frame> inputs;
    inputs.reserve(static_cast<size_t>(matrices));
    for (int m = 0; m < matrices; ++m) {
      Frame spatial{};
      for (auto& v : spatial) v = static_cast<int32_t>(rng.next(256, 255));
      inputs.push_back(idct::forward_dct_reference(spatial));
    }
    return inputs;
  };

  spec.builders = {
      {"verilog_initial", "verilog", "initial", false,
       [] { return rtl::build_verilog_initial(); }},
      {"verilog_opt1", "verilog", "opt1-1row8col", false,
       [] { return rtl::build_verilog_opt1(); }},
      {"verilog_opt2", "verilog", "opt2-pipelined", false,
       [] { return rtl::build_verilog_opt2(); }},
      {"chisel_initial", "chisel", "initial", false,
       [] { return chisel::build_chisel_initial(); }},
      {"chisel_opt", "chisel", "optimized", false,
       [] { return chisel::build_chisel_opt(); }},
      {"bsv_initial", "bsv", "initial", false,
       [] { return bsv::build_bsv_initial(); }},
      {"bsv_opt", "bsv", "optimized", false,
       [] { return bsv::build_bsv_opt(); }},
      {"xls_comb", "xls", "combinational", false,
       [] { return xls::build_xls_design({0}).design; }},
      {"xls_p8", "xls", "8-stage", false,
       [] { return xls::build_xls_design({8}).design; }},
      {"bambu", "bambu", "BAMBU+LSS", false, build_bambu_default},
      {"bambu_perf", "bambu", "BAMBU-PERFORMANCE-MP+sdc+LSS", false,
       build_bambu_perf},
      // Push-button VHLS pays per-call stream overhead: hundreds of cycles
      // per frame, so the tier-1 conformance pass skips it.
      {"vhls_pushbutton", "vhls", "push-button", true, build_vhls_pushbutton},
      {"vhls_pragmas", "vhls", "pragmas(stages=1)", false, build_vhls_pragmas},
  };
  return spec;
}

}  // namespace hlshc::workload
