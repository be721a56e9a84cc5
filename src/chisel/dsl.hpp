// A Chisel-flavoured embedded DSL over the netlist IR.
//
// The paper's Chisel designs differ from the Verilog baseline in exactly
// one load-bearing way: bit widths of intermediate nets are *inferred*
// from the operator tree instead of being declared 32 bits wide. This DSL
// reproduces Chisel's inference rules (FIRRTL semantics):
//
//   a + b  -> max(w_a, w_b) + 1        a * b -> w_a + w_b
//   a - b  -> max(w_a, w_b) + 1        -a    -> w_a + 1
//   a << n -> w_a + n                  a >> n -> max(w_a - n, 1)
//   Mux    -> max of arms              comparisons -> Bool
//
// plus RegInit/RegLike registers, when()-style gated connections and
// SInt/Bool value types with operator overloading, so the design code in
// chisel/designs.cpp reads like the Scala it stands in for.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/ir.hpp"

namespace hlshc::chisel {

class Builder;

/// A 1-bit predicate (Chisel's Bool).
class Bool {
 public:
  Bool() = default;
  netlist::NodeId id() const { return id_; }
  bool valid() const { return b_ != nullptr; }

  Bool operator&&(const Bool& o) const;
  Bool operator||(const Bool& o) const;
  Bool operator!() const;

 private:
  friend class Builder;
  friend class SInt;
  Bool(Builder* b, netlist::NodeId id) : b_(b), id_(id) {}
  Builder* b_ = nullptr;
  netlist::NodeId id_ = netlist::kInvalidNode;
};

/// A signed hardware value with an inferred width (Chisel's SInt).
class SInt {
 public:
  SInt() = default;
  int width() const { return width_; }
  netlist::NodeId id() const { return id_; }
  bool valid() const { return b_ != nullptr; }

  SInt operator+(const SInt& o) const;
  SInt operator-(const SInt& o) const;
  SInt operator*(const SInt& o) const;
  SInt operator<<(int n) const;
  SInt operator>>(int n) const;  ///< arithmetic shift, width shrinks

  Bool operator<(const SInt& o) const;
  Bool operator>(const SInt& o) const;
  Bool operator==(const SInt& o) const;

  /// Chisel's .tail / asSInt reinterpretation: keep the low `w` bits.
  SInt truncate(int w) const;

  /// Bit extraction (Chisel's v(k)) as a Bool.
  Bool bit(int k) const;

 private:
  friend class Builder;
  SInt(Builder* b, netlist::NodeId id, int w) : b_(b), id_(id), width_(w) {}
  Builder* b_ = nullptr;
  netlist::NodeId id_ = netlist::kInvalidNode;
  int width_ = 0;
};

/// Elaboration context for one module.
class Builder {
 public:
  explicit Builder(std::string name) : design_(std::move(name)) {}

  SInt input(const std::string& port, int width);
  Bool input_bool(const std::string& port);
  void output(const std::string& port, const SInt& v);
  void output_bool(const std::string& port, const Bool& v);

  /// Literal with the minimal signed width (Chisel: v.S).
  SInt lit(int64_t v);
  /// Literal with an explicit width (Chisel: v.S(w.W)).
  SInt lit_w(int64_t v, int width);
  Bool lit_bool(bool v);

  /// RegInit(init.S(width.W)).
  SInt reg_init(int width, int64_t init, const std::string& label = {});
  /// Reg(chiselTypeOf(model)) with a reset value — width inferred from data.
  SInt reg_like(const SInt& model, int64_t init, const std::string& label);
  Bool reg_bool(bool init, const std::string& label = {});

  /// reg := next (unconditional).
  void connect(const Bool& reg, const Bool& next);
  /// when(en) { reg := next } — otherwise the register holds.
  void connect_when(const SInt& reg, const Bool& en, const SInt& next);

  SInt mux(const Bool& sel, const SInt& t, const SInt& f);
  Bool mux(const Bool& sel, const Bool& t, const Bool& f);

  /// Hand the elaborated design over (Builder is spent afterwards).
  netlist::Design take() { return std::move(design_); }

  netlist::Design& design() { return design_; }

 private:
  friend class SInt;
  friend class Bool;
  SInt wrap(netlist::NodeId id, int w) { return SInt(this, id, w); }
  Bool wrap_bool(netlist::NodeId id) { return Bool(this, id); }

  netlist::Design design_;
};

}  // namespace hlshc::chisel
