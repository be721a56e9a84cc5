// Shared helpers for the test suites.
#pragma once

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "idct/block.hpp"
#include "idct/chenwang.hpp"
#include "idct/reference.hpp"
#include "base/check.hpp"
#include "netlist/ir.hpp"
#include "netlist/passes.hpp"

namespace hlshc::testutil {

/// Uniform random 12-bit coefficient block. Exercises the full input port
/// range, but note: such blocks are NOT valid DCT data and can overflow
/// 32-bit intermediates inside the Chen-Wang butterfly. Only the 32-bit
/// design families (Verilog and the C/HLS flows, which wrap exactly like
/// the int32 reference) are bit-exact on these.
inline idct::Block uniform_coeff_block(SplitMix64& rng) {
  idct::Block b{};
  for (auto& v : b)
    v = static_cast<int32_t>(rng.next_in(idct::kCoeffMin, idct::kCoeffMax));
  return b;
}

/// A *realistic* coefficient block: the forward DCT of random 9-bit spatial
/// data, i.e. what a JPEG/MPEG decoder actually feeds an IDCT. On this
/// domain every intermediate stays within 32 bits, so all design families
/// (including the width-inferred ones, whose arithmetic never wraps) are
/// bit-identical to the software model. This mirrors IEEE 1180-1990, which
/// also generates test inputs through the forward transform.
inline idct::Block realistic_coeff_block(SplitMix64& rng) {
  idct::Block spatial{};
  for (auto& v : spatial) v = static_cast<int32_t>(rng.next_in(-256, 255));
  return idct::forward_dct_reference(spatial);
}

/// The bit-exact software model all hardware is checked against.
inline idct::Block software_idct(const idct::Block& in) {
  idct::Block b = in;
  idct::idct_2d(b);
  return b;
}

/// A random but valid design: every op kind, mixed widths, registers with
/// and without enables, and a memory with read and write ports.
inline netlist::Design random_design(uint64_t seed) {
  SplitMix64 rng(seed);
  netlist::Design d("fuzz_" + std::to_string(seed));

  const int widths[] = {1, 2, 5, 8, 12, 16, 31, 32, 33, 63, 64};
  auto pick_width = [&] { return widths[rng.next_in(0, 10)]; };

  std::vector<netlist::NodeId> pool;
  const int n_inputs = static_cast<int>(rng.next_in(2, 4));
  for (int i = 0; i < n_inputs; ++i)
    pool.push_back(d.input("in" + std::to_string(i), pick_width()));
  const int n_consts = static_cast<int>(rng.next_in(1, 3));
  for (int i = 0; i < n_consts; ++i) {
    int w = pick_width();
    pool.push_back(d.constant(w, static_cast<int64_t>(rng.next())));
  }

  std::vector<netlist::NodeId> regs;
  const int n_regs = static_cast<int>(rng.next_in(1, 3));
  for (int i = 0; i < n_regs; ++i) {
    int w = pick_width();
    netlist::NodeId r = d.reg(w, static_cast<int64_t>(rng.next()),
                     "r" + std::to_string(i));
    regs.push_back(r);
    pool.push_back(r);
  }

  const int mem_width = pick_width();
  const int mem_id = d.add_memory("m", mem_width, 8);

  auto any = [&] { return pool[rng.next_in(0, static_cast<long>(pool.size()) - 1)]; };
  /// Adapt `n` to exactly `w` bits (slice down or extend up).
  auto fit = [&](netlist::NodeId n, int w) {
    int have = d.node(n).width;
    if (have == w) return n;
    if (have > w) return d.slice(n, w - 1, 0);
    return rng.next_in(0, 1) ? d.sext(n, w) : d.zext(n, w);
  };

  const int n_ops = static_cast<int>(rng.next_in(30, 60));
  for (int i = 0; i < n_ops; ++i) {
    int w = pick_width();
    netlist::NodeId a = any(), b = any();
    netlist::NodeId made = netlist::kInvalidNode;
    switch (rng.next_in(0, 22)) {
      case 0: made = d.add(a, b, w); break;
      case 1: made = d.sub(a, b, w); break;
      case 2: made = d.mul(a, b, w); break;
      case 3: made = d.neg(a, w); break;
      case 4:
        made = d.shl(a, static_cast<int>(rng.next_in(0, 70)), w);
        break;
      case 5:
        made = d.ashr(a, static_cast<int>(rng.next_in(0, 70)), w);
        break;
      case 6:
        // No frontend builds LShr or Ult (case 17), so the generator retags
        // an AShr/Slt node to keep both ops covered.
        made = d.ashr(a, static_cast<int>(rng.next_in(0, 70)), w);
        d.mutable_node(made).op = netlist::Op::LShr;
        break;
      case 7: made = d.band(a, b, w); break;
      case 8: made = d.bor(a, b, w); break;
      case 9: made = d.bxor(a, b, w); break;
      case 10: made = d.bnot(a, w); break;
      case 11: made = d.eq(a, b); break;
      case 12: made = d.ne(a, b); break;
      case 13: made = d.slt(a, b); break;
      case 14: made = d.sle(a, b); break;
      case 15: made = d.sgt(a, b); break;
      case 16: made = d.sge(a, b); break;
      case 17:
        made = d.slt(a, b);
        d.mutable_node(made).op = netlist::Op::Ult;
        break;
      case 18: made = d.mux(fit(a, 1), a, b, w); break;
      case 19: {
        int have = d.node(a).width;
        int lo = static_cast<int>(rng.next_in(0, have - 1));
        int hi = static_cast<int>(rng.next_in(lo, have - 1));
        made = d.slice(a, hi, lo);
        break;
      }
      case 20:
        if (d.node(a).width + d.node(b).width <= 64) {
          made = d.concat(a, b);
        } else {
          made = d.bxor(a, b, w);
        }
        break;
      case 21: made = d.sext(a, w >= d.node(a).width ? w : 64); break;
      case 22: made = d.zext(a, w >= d.node(a).width ? w : 64); break;
    }
    pool.push_back(made);
  }

  // Memory ports: read at a random address, write gated by a 1-bit enable.
  netlist::NodeId addr = fit(any(), 5);  // 5-bit address over depth 8 exercises wrap
  pool.push_back(d.mem_read(mem_id, addr));
  d.mem_write(mem_id, fit(any(), 3), fit(any(), mem_width), fit(any(), 1));

  // Close the register loops (half with enables).
  for (size_t i = 0; i < regs.size(); ++i) {
    netlist::NodeId next = fit(any(), d.node(regs[i]).width);
    if (i % 2 == 0) {
      d.set_reg_next(regs[i], next, fit(any(), 1));
    } else {
      d.set_reg_next(regs[i], next);
    }
  }

  // A few observable outputs (every node is compared anyway).
  for (int i = 0; i < 3; ++i)
    d.output("out" + std::to_string(i), any());
  return d;
}

// ---- shift-add arithmetic units ---------------------------------------------
//
// Small pure-dataflow functions built from netlist::build_shift_add — the
// lowering the strength_reduce pass uses for constant multiplies — so the
// tests can check that lowering in isolation and stress the pipeline with
// designs made only of shift-add trees.

struct ArithGenOptions {
  int input_width = 16;
  int output_width = 32;
  bool csd = true;  ///< CSD recoding (false: plain binary shift-add)
};

/// x * constant as a shift-add tree. Ports: i0 -> o0.
inline netlist::Design generate_const_multiplier(
    int64_t constant, const ArithGenOptions& options,
    const std::string& name) {
  netlist::Design d(name);
  netlist::NodeId x = d.input("i0", options.input_width);
  d.output("o0", netlist::build_shift_add(d, x, constant,
                                          options.output_width, options.csd));
  d.validate();
  return d;
}

/// sum_k (x_k * constants[k]) as shift-add trees + a balanced adder tree.
/// Ports: i0..iN-1 -> o0.
inline netlist::Design generate_dot_product(
    const std::vector<int64_t>& constants, const ArithGenOptions& options,
    const std::string& name) {
  HLSHC_CHECK(!constants.empty(), "dot product needs at least one term");
  netlist::Design d(name);
  std::vector<netlist::NodeId> products;
  for (size_t k = 0; k < constants.size(); ++k) {
    netlist::NodeId x = d.input("i" + std::to_string(k), options.input_width);
    products.push_back(netlist::build_shift_add(
        d, x, constants[k], options.output_width, options.csd));
  }
  while (products.size() > 1) {
    std::vector<netlist::NodeId> next;
    for (size_t i = 0; i + 1 < products.size(); i += 2)
      next.push_back(
          d.add(products[i], products[i + 1], options.output_width));
    if (products.size() % 2) next.push_back(products.back());
    products = std::move(next);
  }
  d.output("o0", products[0]);
  d.validate();
  return d;
}

}  // namespace hlshc::testutil
