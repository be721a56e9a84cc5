#include "maxj/dsl.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "idct/block.hpp"

namespace hlshc::maxj {

using netlist::NodeId;

namespace {
constexpr int kWord = 32;
}

netlist::NodeId KernelBuilder::delay1(NodeId v, const std::string& label) {
  NodeId r = design_.reg(design_.node(v).width, 0, label);
  design_.set_reg_next(r, v);
  return r;
}

DFEVar KernelBuilder::balance(const DFEVar& v, int d) {
  HLSHC_CHECK(d >= v.depth, "balance can only delay, not advance");
  DFEVar cur = v;
  while (cur.depth < d) {
    // Constants need no balancing: they are valid in every tick.
    if (design_.node(cur.id).op == netlist::Op::Const) {
      cur.depth = d;
      break;
    }
    cur.id = delay1(cur.id, "bal_d" + std::to_string(cur.depth));
    balancing_regs_ += cur.width;
    ++cur.depth;
  }
  return wrap(cur.id, cur.width, d);
}

std::pair<DFEVar, DFEVar> KernelBuilder::aligned(const DFEVar& a,
                                                 const DFEVar& b) {
  int d = std::max(a.depth, b.depth);
  return {balance(a, d), balance(b, d)};
}

DFEVar KernelBuilder::input(const std::string& port, int width) {
  return wrap(design_.input(port, width), width, 0);
}

void KernelBuilder::output(const std::string& port, const DFEVar& v) {
  pending_outputs_.emplace_back(port, v);
}

void KernelBuilder::output_raw(const std::string& port, const DFEVar& v) {
  design_.output(port, v.id);
}

DFEVar KernelBuilder::add(const DFEVar& a, const DFEVar& b) {
  auto [x, y] = aligned(a, b);
  NodeId sum = design_.add(x.id, y.id, kWord);
  return wrap(delay1(sum, "p_add"), kWord, x.depth + 1);
}

DFEVar KernelBuilder::sub(const DFEVar& a, const DFEVar& b) {
  auto [x, y] = aligned(a, b);
  NodeId diff = design_.sub(x.id, y.id, kWord);
  return wrap(delay1(diff, "p_sub"), kWord, x.depth + 1);
}

DFEVar KernelBuilder::mulc(const DFEVar& a, int64_t constant) {
  NodeId k = design_.constant(BitVec::min_signed_width(constant), constant);
  NodeId m = design_.mul(a.id, k, kWord);
  return wrap(delay1(m, "p_mul"), kWord, a.depth + 1);
}

DFEVar KernelBuilder::shl(const DFEVar& a, int amount) {
  return wrap(design_.shl(a.id, amount, kWord), kWord, a.depth);
}

DFEVar KernelBuilder::ashr(const DFEVar& a, int amount) {
  return wrap(design_.ashr(a.id, amount, kWord), kWord, a.depth);
}

DFEVar KernelBuilder::constant(int64_t value, int width) {
  return wrap(design_.constant(width, value), width, 0);
}

DFEVar KernelBuilder::counter(int modulo, const std::string& label) {
  // Width: enough for modulo-1, kept positive.
  int w = BitVec::min_signed_width(modulo) + 1;
  NodeId r = design_.reg(w, 0, label);
  NodeId at_top = design_.eq(r, design_.constant(w, modulo - 1));
  NodeId nxt = design_.mux(at_top, design_.constant(w, 0),
                           design_.add(r, design_.constant(w, 1), w), w);
  design_.set_reg_next(r, nxt);
  return wrap(r, w, 0);
}

DFEVar KernelBuilder::eq(const DFEVar& a, int64_t value) {
  return wrap(design_.eq(a.id, design_.constant(a.width, value)), 1, a.depth);
}

DFEVar KernelBuilder::le(const DFEVar& a, int64_t value) {
  return wrap(design_.sle(a.id, design_.constant(a.width, value)), 1,
              a.depth);
}

DFEVar KernelBuilder::logic_and(const DFEVar& a, const DFEVar& b) {
  auto [x, y] = aligned(a, b);
  return wrap(design_.band(x.id, y.id, 1), 1, x.depth);
}

DFEVar KernelBuilder::offset(const DFEVar& v, int back) {
  HLSHC_CHECK(back >= 0, "only backward offsets are synthesizable");
  DFEVar cur = v;
  for (int i = 0; i < back; ++i) {
    cur.id = delay1(cur.id, "off");
    ++cur.depth;
  }
  return wrap(cur.id, cur.width, cur.depth);
}

DFEVar KernelBuilder::clip9(const DFEVar& v) {
  NodeId lo = design_.constant(kWord, idct::kSampleMin);
  NodeId hi = design_.constant(kWord, idct::kSampleMax);
  NodeId below = design_.slt(v.id, lo);
  NodeId above = design_.sgt(v.id, hi);
  NodeId clamped =
      design_.mux(below, lo, design_.mux(above, hi, v.id, kWord), kWord);
  NodeId nine = design_.slice(clamped, 8, 0);
  return wrap(delay1(nine, "p_clip"), 9, v.depth + 1);
}

DFEVar KernelBuilder::state_reg(int width, const std::string& label) {
  return wrap(design_.reg(width, 0, label), width, 0);
}

void KernelBuilder::state_update(const DFEVar& reg, const DFEVar& enable,
                                 const DFEVar& next) {
  // Enable and next must be contemporaneous; the caller aligns them by
  // construction (state registers sit outside the stream schedule).
  design_.set_reg_next(reg.id, design_.sext(next.id, reg.width), enable.id);
}

netlist::Design KernelBuilder::finish() {
  const int d = max_depth_;
  for (auto& [port, v] : pending_outputs_) {
    DFEVar flat = balance(v, d);
    design_.output(port, flat.id);
  }
  pending_outputs_.clear();
  return std::move(design_);
}

}  // namespace hlshc::maxj
