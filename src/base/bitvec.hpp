// BitVec — a fixed-width two's-complement bit vector of 1..64 bits.
//
// All hardware values flowing through the netlist simulator are BitVecs.
// The canonical representation keeps the value sign-extended into an int64_t,
// so `to_int64()` is always the signed interpretation and `to_uint64()` the
// zero-extended one. Every arithmetic result is wrapped (truncated) to the
// result width, matching synthesizable RTL semantics.
#pragma once

#include <cstdint>
#include <string>

#include "base/check.hpp"

namespace hlshc {

class BitVec {
 public:
  static constexpr int kMaxWidth = 64;

  /// Default: 1-bit zero (convenient for containers).
  BitVec() : width_(1), value_(0) {}

  /// Value is truncated to `width` bits and sign-extended internally.
  BitVec(int width, int64_t value) : width_(width), value_(wrap(width, value)) {
    HLSHC_CHECK(width >= 1 && width <= kMaxWidth,
                "BitVec width " << width << " out of range [1,64]");
  }

  static BitVec zero(int width) { return BitVec(width, 0); }
  static BitVec one(int width) { return BitVec(width, 1); }
  static BitVec all_ones(int width) { return BitVec(width, -1); }
  static BitVec bool_of(bool b) { return BitVec(1, b ? 1 : 0); }

  int width() const { return width_; }

  /// Signed (two's complement) interpretation.
  int64_t to_int64() const { return value_; }

  /// Unsigned (zero-extended) interpretation.
  uint64_t to_uint64() const {
    return static_cast<uint64_t>(value_) & mask(width_);
  }

  bool is_zero() const { return value_ == 0; }
  bool to_bool() const { return value_ != 0; }

  /// Bit i (0 = LSB).
  bool bit(int i) const {
    HLSHC_CHECK(i >= 0 && i < width_, "bit index " << i << " out of width "
                                                   << width_);
    return (static_cast<uint64_t>(value_) >> i) & 1u;
  }

  // ---- arithmetic (all results wrapped to `out_width`) ----

  static BitVec add(const BitVec& a, const BitVec& b, int out_width) {
    return BitVec(out_width, wide_to_i64(i128(a.value_) + i128(b.value_)));
  }
  static BitVec sub(const BitVec& a, const BitVec& b, int out_width) {
    return BitVec(out_width, wide_to_i64(i128(a.value_) - i128(b.value_)));
  }
  static BitVec mul(const BitVec& a, const BitVec& b, int out_width) {
    return BitVec(out_width, wide_to_i64(i128(a.value_) * i128(b.value_)));
  }
  static BitVec neg(const BitVec& a, int out_width) {
    return BitVec(out_width, wide_to_i64(-i128(a.value_)));
  }

  /// Logical shift left by a constant amount.
  static BitVec shl(const BitVec& a, int amount, int out_width) {
    HLSHC_CHECK(amount >= 0 && amount < 2 * kMaxWidth, "bad shl " << amount);
    i128 v = amount >= 127 ? i128(0) : (i128(a.value_) << amount);
    return BitVec(out_width, wide_to_i64(v));
  }

  /// Arithmetic (sign-preserving) shift right by a constant amount.
  static BitVec ashr(const BitVec& a, int amount, int out_width) {
    HLSHC_CHECK(amount >= 0, "bad ashr " << amount);
    int64_t v = amount >= 63 ? (a.value_ < 0 ? -1 : 0) : (a.value_ >> amount);
    return BitVec(out_width, v);
  }

  /// Logical (zero-filling) shift right by a constant amount.
  static BitVec lshr(const BitVec& a, int amount, int out_width) {
    HLSHC_CHECK(amount >= 0, "bad lshr " << amount);
    uint64_t u = a.to_uint64();
    uint64_t v = amount >= 64 ? 0 : (u >> amount);
    return BitVec(out_width, static_cast<int64_t>(v));
  }

  // ---- bitwise ----

  static BitVec band(const BitVec& a, const BitVec& b, int out_width) {
    return BitVec(out_width, a.value_ & b.value_);
  }
  static BitVec bor(const BitVec& a, const BitVec& b, int out_width) {
    return BitVec(out_width, a.value_ | b.value_);
  }
  static BitVec bxor(const BitVec& a, const BitVec& b, int out_width) {
    return BitVec(out_width, a.value_ ^ b.value_);
  }
  static BitVec bnot(const BitVec& a, int out_width) {
    return BitVec(out_width, ~a.value_);
  }

  // ---- comparisons (1-bit results) ----

  static BitVec eq(const BitVec& a, const BitVec& b) {
    // Operands of a well-formed netlist Eq have equal widths; comparing the
    // canonical sign-extended values is then exact.
    return bool_of(a.value_ == b.value_);
  }
  static BitVec ne(const BitVec& a, const BitVec& b) {
    return bool_of(!eq(a, b).to_bool());
  }
  /// Signed less-than.
  static BitVec slt(const BitVec& a, const BitVec& b) {
    return bool_of(a.value_ < b.value_);
  }
  static BitVec sle(const BitVec& a, const BitVec& b) {
    return bool_of(a.value_ <= b.value_);
  }
  static BitVec sgt(const BitVec& a, const BitVec& b) {
    return bool_of(a.value_ > b.value_);
  }
  static BitVec sge(const BitVec& a, const BitVec& b) {
    return bool_of(a.value_ >= b.value_);
  }
  /// Unsigned less-than.
  static BitVec ult(const BitVec& a, const BitVec& b) {
    return bool_of(a.to_uint64() < b.to_uint64());
  }

  // ---- structure ----

  /// Bits [hi:lo], reinterpreted as a (hi-lo+1)-wide value.
  static BitVec slice(const BitVec& a, int hi, int lo) {
    HLSHC_CHECK(0 <= lo && lo <= hi && hi < a.width_,
                "slice [" << hi << ':' << lo << "] of width " << a.width_);
    uint64_t u = a.to_uint64() >> lo;
    return BitVec(hi - lo + 1, static_cast<int64_t>(u));
  }

  /// {hi, lo} — hi becomes the most significant part.
  static BitVec concat(const BitVec& hi, const BitVec& lo) {
    int w = hi.width_ + lo.width_;
    HLSHC_CHECK(w <= kMaxWidth, "concat width " << w << " exceeds 64");
    uint64_t u = (hi.to_uint64() << lo.width_) | lo.to_uint64();
    return BitVec(w, static_cast<int64_t>(u));
  }

  /// Sign-extend (or truncate) to `out_width`.
  static BitVec sext(const BitVec& a, int out_width) {
    return BitVec(out_width, a.value_);
  }

  /// Zero-extend (or truncate) to `out_width`.
  static BitVec zext(const BitVec& a, int out_width) {
    return BitVec(out_width, static_cast<int64_t>(a.to_uint64()));
  }

  static BitVec mux(const BitVec& sel, const BitVec& t, const BitVec& f,
                    int out_width) {
    const BitVec& chosen = sel.to_bool() ? t : f;
    return BitVec(out_width, chosen.value_);
  }

  /// Minimum signed width that can represent `v` in two's complement
  /// (e.g. 0 -> 1, 1 -> 2, -1 -> 1, 7 -> 4, -8 -> 4).
  static int min_signed_width(int64_t v);

  /// Binary string, MSB first, e.g. "4'b0101" style without the prefix.
  std::string to_binary_string() const;
  std::string to_string() const;  ///< "<width>'d<signed value>"

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.width_ == b.width_ && a.value_ == b.value_;
  }
  friend bool operator!=(const BitVec& a, const BitVec& b) { return !(a == b); }

 private:
  using i128 = __int128;

  static uint64_t mask(int width) {
    return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  }

  /// Truncate to `width` bits, then sign-extend into int64_t.
  static int64_t wrap(int width, int64_t value) {
    uint64_t u = static_cast<uint64_t>(value) & mask(width);
    if (width < 64 && (u >> (width - 1)) & 1u) u |= ~mask(width);
    return static_cast<int64_t>(u);
  }

  static int64_t wide_to_i64(i128 v) { return static_cast<int64_t>(v); }

  int width_;
  int64_t value_;  ///< canonical: sign-extended to 64 bits
};

}  // namespace hlshc
