#include "sim/simulator.hpp"

namespace hlshc::sim {

using netlist::Design;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

Simulator::Simulator(const Design& design)
    : Engine(design), order_(design.topo_order_shared()) {
  values_.assign(design_.node_count(), BitVec());
  reg_state_.assign(design_.node_count(), BitVec());
  for (size_t i = 0; i < design_.node_count(); ++i) {
    const Node& n = design_.node(static_cast<NodeId>(i));
    if (n.op == Op::Reg) regs_.push_back(static_cast<NodeId>(i));
    values_[i] = BitVec::zero(n.width);
  }
  for (const netlist::Memory& m : design_.memories())
    mem_state_.emplace_back(static_cast<size_t>(m.depth),
                            BitVec::zero(m.width));
  reset();
}

void Simulator::reset_state() {
  for (NodeId r : regs_) {
    const Node& n = design_.node(r);
    reg_state_[static_cast<size_t>(r)] = BitVec(n.width, n.imm);
  }
  for (size_t m = 0; m < mem_state_.size(); ++m) {
    const netlist::Memory& mem = design_.memories()[m];
    mem_state_[m].assign(static_cast<size_t>(mem.depth),
                         BitVec::zero(mem.width));
  }
  for (NodeId in : design_.inputs())
    values_[static_cast<size_t>(in)] = BitVec::zero(design_.node(in).width);
}

void Simulator::poke_input(NodeId id, int64_t value) {
  values_[static_cast<size_t>(id)] = BitVec(design_.node(id).width, value);
}

void Simulator::do_flip_reg_bit(NodeId reg, int bit, int width) {
  BitVec mask(width, static_cast<int64_t>(uint64_t{1} << bit));
  BitVec& state = reg_state_[static_cast<size_t>(reg)];
  state = BitVec::bxor(state, mask, width);
}

void Simulator::do_flip_mem_bit(int mem_id, int addr, int bit, int width) {
  BitVec mask(width, static_cast<int64_t>(uint64_t{1} << bit));
  BitVec& word =
      mem_state_[static_cast<size_t>(mem_id)][static_cast<size_t>(addr)];
  word = BitVec::bxor(word, mask, width);
}

void Simulator::compute(NodeId id) {
  const Node& n = design_.node(id);
  const size_t i = static_cast<size_t>(id);
  auto in = [&](int k) -> const BitVec& {
    return values_[static_cast<size_t>(n.operands[static_cast<size_t>(k)])];
  };
  const int w = n.width;
  switch (n.op) {
    case Op::Input: break;  // externally driven
    case Op::Output: values_[i] = in(0); break;
    case Op::Const: values_[i] = BitVec(w, n.imm); break;
    case Op::Add: values_[i] = BitVec::add(in(0), in(1), w); break;
    case Op::Sub: values_[i] = BitVec::sub(in(0), in(1), w); break;
    case Op::Mul: values_[i] = BitVec::mul(in(0), in(1), w); break;
    case Op::Neg: values_[i] = BitVec::neg(in(0), w); break;
    case Op::Shl:
      values_[i] = BitVec::shl(in(0), static_cast<int>(n.imm), w);
      break;
    case Op::AShr:
      values_[i] = BitVec::ashr(in(0), static_cast<int>(n.imm), w);
      break;
    case Op::LShr:
      values_[i] = BitVec::lshr(in(0), static_cast<int>(n.imm), w);
      break;
    case Op::And: values_[i] = BitVec::band(in(0), in(1), w); break;
    case Op::Or: values_[i] = BitVec::bor(in(0), in(1), w); break;
    case Op::Xor: values_[i] = BitVec::bxor(in(0), in(1), w); break;
    case Op::Not: values_[i] = BitVec::bnot(in(0), w); break;
    case Op::Eq: values_[i] = BitVec::eq(in(0), in(1)); break;
    case Op::Ne: values_[i] = BitVec::ne(in(0), in(1)); break;
    case Op::Slt: values_[i] = BitVec::slt(in(0), in(1)); break;
    case Op::Sle: values_[i] = BitVec::sle(in(0), in(1)); break;
    case Op::Sgt: values_[i] = BitVec::sgt(in(0), in(1)); break;
    case Op::Sge: values_[i] = BitVec::sge(in(0), in(1)); break;
    case Op::Ult: values_[i] = BitVec::ult(in(0), in(1)); break;
    case Op::Mux: values_[i] = BitVec::mux(in(0), in(1), in(2), w); break;
    case Op::Slice:
      values_[i] = BitVec::slice(in(0), static_cast<int>(n.imm2),
                                 static_cast<int>(n.imm));
      break;
    case Op::Concat: values_[i] = BitVec::concat(in(0), in(1)); break;
    case Op::SExt: values_[i] = BitVec::sext(in(0), w); break;
    case Op::ZExt: values_[i] = BitVec::zext(in(0), w); break;
    case Op::Reg: values_[i] = reg_state_[i]; break;
    case Op::MemRead: {
      const auto& mem = mem_state_[static_cast<size_t>(n.mem)];
      // Address wraps modulo depth, matching typical FPGA RAM behaviour.
      uint64_t addr = in(0).to_uint64() % mem.size();
      values_[i] = mem[addr];
      break;
    }
    case Op::MemWrite:
      values_[i] = in(1);  // value flows through for probing
      break;
  }
  if (id == comb_node_) values_[i] = apply_comb_fault(values_[i]);
}

BitVec Simulator::apply_comb_fault(const BitVec& value) const {
  const int w = value.width();
  const BitVec mask(w, static_cast<int64_t>(uint64_t{1} << fault_.bit));
  switch (fault_.kind) {
    case LaneFault::Kind::kStuck0:
      return BitVec::band(value, BitVec::bnot(mask, w), w);
    case LaneFault::Kind::kStuck1:
      return BitVec::bor(value, mask, w);
    case LaneFault::Kind::kTransient:
      return cycle_ == fault_.cycle ? BitVec::bxor(value, mask, w) : value;
    default:
      return value;
  }
}

void Simulator::eval_comb() {
  for (NodeId id : *order_) compute(id);
}

void Simulator::commit_state() {
  // Latch registers.
  for (NodeId r : regs_) {
    const Node& n = design_.node(r);
    bool enabled = n.operands.size() < 2 ||
                   values_[static_cast<size_t>(n.operands[1])].to_bool();
    if (enabled)
      reg_state_[static_cast<size_t>(r)] =
          values_[static_cast<size_t>(n.operands[0])];
  }
  // Commit memory writes in node order (later writes win on collisions).
  for (NodeId wr : design_.mem_writes()) {
    const Node& n = design_.node(wr);
    if (!values_[static_cast<size_t>(n.operands[2])].to_bool()) continue;
    auto& mem = mem_state_[static_cast<size_t>(n.mem)];
    uint64_t addr =
        values_[static_cast<size_t>(n.operands[0])].to_uint64() % mem.size();
    mem[addr] = values_[static_cast<size_t>(n.operands[1])];
  }
}

void Simulator::snapshot_values(int64_t* out) const {
  for (size_t i = 0; i < values_.size(); ++i) out[i] = values_[i].to_int64();
}

BitVec Simulator::mem_peek(int mem_id, int addr) const {
  return mem_state_[static_cast<size_t>(mem_id)][static_cast<size_t>(addr)];
}

void Simulator::mem_poke(int mem_id, int addr, const BitVec& value) {
  auto& mem = mem_state_[static_cast<size_t>(mem_id)];
  mem[static_cast<size_t>(addr)] =
      BitVec(design_.memories()[static_cast<size_t>(mem_id)].width,
             value.to_int64());
}

}  // namespace hlshc::sim
