#!/usr/bin/env bash
# Guard: every flow, bench and campaign must go through the canonical
# tools::compile entry (src/tools/compile.hpp). Direct calls to
# synth::synthesize()/synthesize_normalized() or netlist::optimize() outside
# the layers that implement them bypass the pass pipeline (and its verify
# mode), so CI fails on any new call site.
#
# Allowed layers:
#   src/synth     - implements synthesis
#   src/tools     - the canonical entry itself
#   src/netlist   - implements the passes (optimize lives here)
#   src/core/evaluate.cpp - the Section III.C measurement procedure invokes
#                   synthesis directly by design (documented exemption); it
#                   is only reachable through tools::evaluate_design.
# Tests may call anything: they pin the low-level APIs on purpose.
set -u
cd "$(dirname "$0")/.."

fail=0

check() {
  local pattern="$1" label="$2"
  shift 2
  local hits
  hits=$(grep -rnE "$pattern" src bench examples \
      --include='*.cpp' --include='*.hpp' \
    | grep -vE '^src/(synth|tools|netlist)/' \
    | grep -v '^src/core/evaluate\.cpp:' \
    || true)
  if [ -n "$hits" ]; then
    echo "ERROR: direct $label call outside the compile pipeline:" >&2
    echo "$hits" >&2
    echo "Route through tools::compile / tools::compile_synth instead" \
         "(src/tools/compile.hpp)." >&2
    fail=1
  fi
}

# synth::synthesize / synthesize_normalized — but not the tools::compile_synth*
# wrappers, whose names do not contain "synthesize".
check '\bsynthesize(_normalized)?\(' 'synth::synthesize'

# netlist::optimize (bare optimize( would also match member fields named
# optimize, so require the qualified or free-function form).
check '(netlist::|[^_[:alnum:].>])optimize\(' 'netlist::optimize'

# The service layer (src/svc) must route every compile through the
# tools::compile entry via its DesignCache — running PassManager or
# individual passes directly from the service would bypass the pipeline's
# verify wiring while looking like a normal compile to clients.
svc_hits=$(grep -rnE 'PassManager|make_default_pipeline|run_pass\(' \
    src/svc --include='*.cpp' --include='*.hpp' || true)
if [ -n "$svc_hits" ]; then
  echo "ERROR: src/svc drives the pass pipeline directly:" >&2
  echo "$svc_hits" >&2
  echo "The service must compile through tools::compile (svc/cache.hpp)." >&2
  fail=1
fi
if ! grep -q 'tools::compile(' src/svc/cache.cpp; then
  echo "ERROR: src/svc/cache.cpp no longer routes through tools::compile —" \
       "the service compile path lost its canonical entry." >&2
  fail=1
fi

# Interval analysis (netlist::RangeAnalysis, netlist/range.hpp) has exactly
# two production clients: the narrow pass (src/netlist) and the synthesis
# cost model's width reasoning (src/synth). Any other layer consuming raw
# ranges would fork the width story the narrow pass already owns — flows
# and benches see narrowing only through tools::compile's `narrow` knob.
# Tests may call anything: they pin the analysis on purpose.
range_hits=$(grep -rnE '\bRangeAnalysis\b|"netlist/range\.hpp"' \
    src bench examples --include='*.cpp' --include='*.hpp' \
  | grep -vE '^src/(netlist|synth)/' \
  || true)
if [ -n "$range_hits" ]; then
  echo "ERROR: RangeAnalysis used outside src/netlist and src/synth:" >&2
  echo "$range_hits" >&2
  echo "Width narrowing is the narrow pass's job — enable it through" \
       "tools::CompileOptions.narrow (src/tools/compile.hpp)." >&2
  fail=1
fi

# The workload registry (src/workload) is the only production gateway to the
# IDCT golden model and stimulus: code elsewhere must consume a WorkloadSpec
# (reference/encode/eval_stimulus/campaign_inputs) so every workload flows
# through the same compare path. Exemptions:
#   src/idct             - implements the model
#   src/workload         - wraps it into the registry
#   bench/ieee1180.cpp   - checks the C kernel itself against the
#                          standard, not a hardware design
# Tests may call anything: they pin the model on purpose.
# (The chenwang constants kW1..kW7 stay fair game: the rtl/chisel/maxj
# frontends use them to *build* the IDCT's hardware, which is exactly their
# job; only the software model and reference transforms are gated.)
idct_hits=$(grep -rnE '\bidct::(idct_2d|idct_2d_straight|idct_1d|idct_reference|forward_dct_reference)\b|"idct/reference\.hpp"' \
    src bench examples --include='*.cpp' --include='*.hpp' \
  | grep -vE '^src/(idct|workload)/' \
  | grep -vE '^bench/ieee1180\.cpp:' \
  || true)
if [ -n "$idct_hits" ]; then
  echo "ERROR: direct IDCT model reference outside the workload registry:" >&2
  echo "$idct_hits" >&2
  echo "Consume a workload::WorkloadSpec (reference/encode/stimulus hooks)" \
       "instead (src/workload/workload.hpp)." >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "pipeline guard: OK (all flows route through tools::compile," \
       "IDCT model access through the workload registry)"
fi
exit "$fail"
