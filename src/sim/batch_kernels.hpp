// Internal interface between sim::BatchSimulator and its ISA-specialized
// lane kernels.
//
// The per-instruction lane loops are the whole cost of a batched sweep, and
// they only pay off when the compiler vectorizes them. The toolchain's
// default ISA (plain x86-64 = SSE2) packs two int64 lanes per vector; AVX2
// packs four; AVX-512 packs eight. Rather than bake a wider -march into the
// binary (and SIGILL on older hosts), the kernel translation unit is
// compiled per microarchitecture level the toolchain supports — baseline,
// x86-64-v3 (AVX2), x86-64-v4 (AVX-512) — and
// BatchSimulator picks the widest set the *running* CPU reports at
// construction time. Both copies are the same source (batch_kernels.inc),
// so they are bitwise-identical in results by construction: everything is
// two's-complement integer math, which vectorization cannot change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/exec_plan.hpp"
#include "sim/batch.hpp"

namespace hlshc::sim {

/// Executes `n` consecutive instructions of the per-cycle stream (the whole
/// stream, or one segment between armed fault slots) across all lanes of
/// the lane-major value/state/memory arrays.
using StreamKernelFn = void (*)(const netlist::ExecInstr* instrs, size_t n,
                                int64_t* values, int64_t* state,
                                std::vector<LaneVec>* mem, int lanes);

/// Baseline kernels (the toolchain's default ISA). Always present.
StreamKernelFn select_stream_kernel_base(int lanes);

#if defined(HLSHC_BATCH_HAVE_V3)
/// x86-64-v3 kernels (AVX2/FMA/BMI2). Only call when the CPU has them.
StreamKernelFn select_stream_kernel_v3(int lanes);
#endif

#if defined(HLSHC_BATCH_HAVE_V4)
/// x86-64-v4 kernels (AVX-512). Only call when the CPU has them.
StreamKernelFn select_stream_kernel_v4(int lanes);
#endif

/// Runtime ISA dispatch: the widest kernel set this CPU supports, for the
/// given lane count (fixed-trip 4/8/16 specializations, generic otherwise).
StreamKernelFn select_stream_kernel(int lanes);

}  // namespace hlshc::sim
