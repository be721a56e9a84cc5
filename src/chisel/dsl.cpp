#include "chisel/dsl.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace hlshc::chisel {

using netlist::NodeId;

namespace {

int checked_width(int w) {
  HLSHC_CHECK(w >= 1 && w <= 64,
              "inferred width " << w << " exceeds the 64-bit value limit");
  return w;
}

}  // namespace

// ---- Bool -------------------------------------------------------------------

Bool Bool::operator&&(const Bool& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "Bool from different builders");
  return Bool(b_, b_->design().band(id_, o.id_, 1));
}

Bool Bool::operator||(const Bool& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "Bool from different builders");
  return Bool(b_, b_->design().bor(id_, o.id_, 1));
}

Bool Bool::operator!() const {
  HLSHC_CHECK(b_ != nullptr, "unbound Bool");
  return Bool(b_, b_->design().bnot(id_, 1));
}

// ---- SInt -------------------------------------------------------------------

SInt SInt::operator+(const SInt& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "SInt from different builders");
  int w = checked_width(std::max(width_, o.width_) + 1);
  return SInt(b_, b_->design().add(id_, o.id_, w), w);
}

SInt SInt::operator-(const SInt& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "SInt from different builders");
  int w = checked_width(std::max(width_, o.width_) + 1);
  return SInt(b_, b_->design().sub(id_, o.id_, w), w);
}

SInt SInt::operator*(const SInt& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "SInt from different builders");
  int w = checked_width(width_ + o.width_);
  return SInt(b_, b_->design().mul(id_, o.id_, w), w);
}

SInt SInt::operator<<(int n) const {
  HLSHC_CHECK(b_ != nullptr, "unbound SInt");
  int w = checked_width(width_ + n);
  return SInt(b_, b_->design().shl(id_, n, w), w);
}

SInt SInt::operator>>(int n) const {
  HLSHC_CHECK(b_ != nullptr, "unbound SInt");
  int w = std::max(width_ - n, 1);
  return SInt(b_, b_->design().ashr(id_, n, w), w);
}

Bool SInt::operator<(const SInt& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "SInt from different builders");
  return Bool(b_, b_->design().slt(id_, o.id_));
}

Bool SInt::operator>(const SInt& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "SInt from different builders");
  return Bool(b_, b_->design().sgt(id_, o.id_));
}

Bool SInt::operator==(const SInt& o) const {
  HLSHC_CHECK(b_ != nullptr && b_ == o.b_, "SInt from different builders");
  // Chisel compares after widening both sides to the max width.
  int w = std::max(width_, o.width_);
  netlist::Design& d = b_->design();
  return Bool(b_, d.eq(d.sext(id_, w), d.sext(o.id_, w)));
}

SInt SInt::truncate(int w) const {
  HLSHC_CHECK(b_ != nullptr, "unbound SInt");
  if (w >= width_) return *this;
  return SInt(b_, b_->design().slice(id_, w - 1, 0), w);
}

Bool SInt::bit(int k) const {
  HLSHC_CHECK(b_ != nullptr, "unbound SInt");
  HLSHC_CHECK(k >= 0 && k < width_, "bit index " << k << " out of " << width_);
  return Bool(b_, b_->design().slice(id_, k, k));
}

// ---- Builder ----------------------------------------------------------------

SInt Builder::input(const std::string& port, int width) {
  return wrap(design_.input(port, width), width);
}

Bool Builder::input_bool(const std::string& port) {
  return wrap_bool(design_.input(port, 1));
}

void Builder::output(const std::string& port, const SInt& v) {
  design_.output(port, v.id());
}

void Builder::output_bool(const std::string& port, const Bool& v) {
  design_.output(port, v.id());
}

SInt Builder::lit(int64_t v) {
  int w = BitVec::min_signed_width(v);
  return wrap(design_.constant(w, v), w);
}

SInt Builder::lit_w(int64_t v, int width) {
  return wrap(design_.constant(width, v), width);
}

Bool Builder::lit_bool(bool v) {
  return wrap_bool(design_.constant(1, v ? 1 : 0));
}

SInt Builder::reg_init(int width, int64_t init, const std::string& label) {
  return wrap(design_.reg(width, init, label), width);
}

SInt Builder::reg_like(const SInt& model, int64_t init,
                       const std::string& label) {
  return wrap(design_.reg(model.width(), init, label), model.width());
}

Bool Builder::reg_bool(bool init, const std::string& label) {
  return wrap_bool(design_.reg(1, init ? 1 : 0, label));
}

void Builder::connect(const Bool& reg, const Bool& next) {
  design_.set_reg_next(reg.id(), next.id());
}

void Builder::connect_when(const SInt& reg, const Bool& en,
                           const SInt& next) {
  HLSHC_CHECK(next.width() <= reg.width(),
              "connect_when would truncate " << next.width() << " -> "
                                             << reg.width() << " bits");
  netlist::NodeId rhs = next.width() == reg.width()
                            ? next.id()
                            : design_.sext(next.id(), reg.width());
  design_.set_reg_next(reg.id(), rhs, en.id());
}

SInt Builder::mux(const Bool& sel, const SInt& t, const SInt& f) {
  int w = std::max(t.width(), f.width());
  return wrap(design_.mux(sel.id(), design_.sext(t.id(), w),
                          design_.sext(f.id(), w), w),
              w);
}

Bool Builder::mux(const Bool& sel, const Bool& t, const Bool& f) {
  return wrap_bool(design_.mux(sel.id(), t.id(), f.id(), 1));
}

}  // namespace hlshc::chisel
