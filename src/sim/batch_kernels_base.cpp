// Baseline-ISA instantiation of the lane kernels (the toolchain's default
// -march; SSE2 on x86-64). Always compiled; select_stream_kernel() falls
// back here when the CPU lacks the wider kernel set.
#include "sim/batch_kernels.hpp"

namespace hlshc::sim {

namespace kernels_base {
#include "sim/batch_kernels.inc"
}  // namespace kernels_base

StreamKernelFn select_stream_kernel_base(int lanes) {
  return kernels_base::select(lanes);
}

}  // namespace hlshc::sim
