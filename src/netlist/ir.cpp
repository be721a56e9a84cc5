#include "netlist/ir.hpp"

#include <algorithm>
#include <queue>

namespace hlshc::netlist {

const char* op_name(Op op) {
  switch (op) {
    case Op::Input: return "input";
    case Op::Output: return "output";
    case Op::Const: return "const";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Mul: return "mul";
    case Op::Neg: return "neg";
    case Op::Shl: return "shl";
    case Op::AShr: return "ashr";
    case Op::LShr: return "lshr";
    case Op::And: return "and";
    case Op::Or: return "or";
    case Op::Xor: return "xor";
    case Op::Not: return "not";
    case Op::Eq: return "eq";
    case Op::Ne: return "ne";
    case Op::Slt: return "slt";
    case Op::Sle: return "sle";
    case Op::Sgt: return "sgt";
    case Op::Sge: return "sge";
    case Op::Ult: return "ult";
    case Op::Mux: return "mux";
    case Op::Slice: return "slice";
    case Op::Concat: return "concat";
    case Op::SExt: return "sext";
    case Op::ZExt: return "zext";
    case Op::Reg: return "reg";
    case Op::MemRead: return "mem_read";
    case Op::MemWrite: return "mem_write";
  }
  return "?";
}

NodeId Design::push(Node n) {
  HLSHC_CHECK(n.width >= 1 && n.width <= BitVec::kMaxWidth,
              "node width " << n.width << " out of range in '" << name_
                            << '\'');
  invalidate_caches();
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Design::check_id(NodeId id) const {
  HLSHC_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
              "operand id " << id << " out of range in '" << name_ << '\'');
}

NodeId Design::input(const std::string& port_name, int width) {
  HLSHC_CHECK(find_input(port_name) == kInvalidNode,
              "duplicate input port '" << port_name << '\'');
  Node n;
  n.op = Op::Input;
  n.width = width;
  n.name = port_name;
  NodeId id = push(std::move(n));
  inputs_.push_back(id);
  return id;
}

NodeId Design::output(const std::string& port_name, NodeId value) {
  check_id(value);
  HLSHC_CHECK(find_output(port_name) == kInvalidNode,
              "duplicate output port '" << port_name << '\'');
  Node n;
  n.op = Op::Output;
  n.width = node(value).width;
  n.operands = {value};
  n.name = port_name;
  NodeId id = push(std::move(n));
  outputs_.push_back(id);
  return id;
}

NodeId Design::constant(int width, int64_t value) {
  Node n;
  n.op = Op::Const;
  n.width = width;
  n.imm = BitVec(width, value).to_int64();
  return push(std::move(n));
}

NodeId Design::binary(Op op, NodeId a, NodeId b, int width) {
  check_id(a);
  check_id(b);
  Node n;
  n.op = op;
  n.width = width;
  n.operands = {a, b};
  return push(std::move(n));
}

NodeId Design::unary(Op op, NodeId a, int width) {
  check_id(a);
  Node n;
  n.op = op;
  n.width = width;
  n.operands = {a};
  return push(std::move(n));
}

NodeId Design::compare(Op op, NodeId a, NodeId b) {
  check_id(a);
  check_id(b);
  Node n;
  n.op = op;
  n.width = 1;
  n.operands = {a, b};
  return push(std::move(n));
}

NodeId Design::add(NodeId a, NodeId b, int w) { return binary(Op::Add, a, b, w); }
NodeId Design::sub(NodeId a, NodeId b, int w) { return binary(Op::Sub, a, b, w); }
NodeId Design::mul(NodeId a, NodeId b, int w) { return binary(Op::Mul, a, b, w); }
NodeId Design::neg(NodeId a, int w) { return unary(Op::Neg, a, w); }

NodeId Design::shl(NodeId a, int amount, int w) {
  NodeId id = unary(Op::Shl, a, w);
  mutable_node(id).imm = amount;
  return id;
}
NodeId Design::ashr(NodeId a, int amount, int w) {
  NodeId id = unary(Op::AShr, a, w);
  mutable_node(id).imm = amount;
  return id;
}

NodeId Design::band(NodeId a, NodeId b, int w) { return binary(Op::And, a, b, w); }
NodeId Design::bor(NodeId a, NodeId b, int w) { return binary(Op::Or, a, b, w); }
NodeId Design::bxor(NodeId a, NodeId b, int w) { return binary(Op::Xor, a, b, w); }
NodeId Design::bnot(NodeId a, int w) { return unary(Op::Not, a, w); }

NodeId Design::eq(NodeId a, NodeId b) { return compare(Op::Eq, a, b); }
NodeId Design::ne(NodeId a, NodeId b) { return compare(Op::Ne, a, b); }
NodeId Design::slt(NodeId a, NodeId b) { return compare(Op::Slt, a, b); }
NodeId Design::sle(NodeId a, NodeId b) { return compare(Op::Sle, a, b); }
NodeId Design::sgt(NodeId a, NodeId b) { return compare(Op::Sgt, a, b); }
NodeId Design::sge(NodeId a, NodeId b) { return compare(Op::Sge, a, b); }

NodeId Design::mux(NodeId sel, NodeId t, NodeId f, int w) {
  check_id(sel);
  check_id(t);
  check_id(f);
  Node n;
  n.op = Op::Mux;
  n.width = w;
  n.operands = {sel, t, f};
  return push(std::move(n));
}

NodeId Design::slice(NodeId a, int hi, int lo) {
  check_id(a);
  HLSHC_CHECK(0 <= lo && lo <= hi && hi < node(a).width,
              "slice [" << hi << ':' << lo << "] of node width "
                        << node(a).width);
  Node n;
  n.op = Op::Slice;
  n.width = hi - lo + 1;
  n.operands = {a};
  n.imm = lo;
  n.imm2 = hi;
  return push(std::move(n));
}

NodeId Design::concat(NodeId hi, NodeId lo) {
  check_id(hi);
  check_id(lo);
  Node n;
  n.op = Op::Concat;
  n.width = node(hi).width + node(lo).width;
  n.operands = {hi, lo};
  return push(std::move(n));
}

NodeId Design::sext(NodeId a, int w) { return unary(Op::SExt, a, w); }
NodeId Design::zext(NodeId a, int w) { return unary(Op::ZExt, a, w); }

NodeId Design::reg(int width, int64_t init, const std::string& label) {
  Node n;
  n.op = Op::Reg;
  n.width = width;
  n.imm = BitVec(width, init).to_int64();
  n.name = label;
  return push(std::move(n));
}

void Design::set_reg_next(NodeId reg_node, NodeId next, NodeId enable) {
  check_id(reg_node);
  check_id(next);
  Node& r = mutable_node(reg_node);
  HLSHC_CHECK(r.op == Op::Reg, "set_reg_next on non-reg node");
  HLSHC_CHECK(r.operands.empty(), "register next-value already set");
  r.operands = {next};
  if (enable != kInvalidNode) {
    check_id(enable);
    HLSHC_CHECK(node(enable).width == 1, "register enable must be 1 bit");
    r.operands.push_back(enable);
  }
}

int Design::add_memory(const std::string& mem_name, int width, int depth) {
  HLSHC_CHECK(width >= 1 && depth >= 1,
              "bad memory shape " << width << 'x' << depth);
  invalidate_caches();
  memories_.push_back(Memory{mem_name, width, depth});
  return static_cast<int>(memories_.size() - 1);
}

NodeId Design::mem_read(int mem_id, NodeId addr) {
  check_id(addr);
  HLSHC_CHECK(mem_id >= 0 && static_cast<size_t>(mem_id) < memories_.size(),
              "bad memory id " << mem_id);
  Node n;
  n.op = Op::MemRead;
  n.width = memories_[static_cast<size_t>(mem_id)].width;
  n.operands = {addr};
  n.mem = mem_id;
  return push(std::move(n));
}

NodeId Design::mem_write(int mem_id, NodeId addr, NodeId data, NodeId enable) {
  check_id(addr);
  check_id(data);
  check_id(enable);
  HLSHC_CHECK(mem_id >= 0 && static_cast<size_t>(mem_id) < memories_.size(),
              "bad memory id " << mem_id);
  HLSHC_CHECK(node(enable).width == 1, "memory write enable must be 1 bit");
  Node n;
  n.op = Op::MemWrite;
  n.width = memories_[static_cast<size_t>(mem_id)].width;
  n.operands = {addr, data, enable};
  n.mem = mem_id;
  NodeId id = push(std::move(n));
  mem_writes_.push_back(id);
  return id;
}

NodeId Design::find_input(std::string_view port_name) const {
  for (NodeId id : inputs_)
    if (node(id).name == port_name) return id;
  return kInvalidNode;
}

NodeId Design::find_output(std::string_view port_name) const {
  for (NodeId id : outputs_)
    if (node(id).name == port_name) return id;
  return kInvalidNode;
}

int Design::io_bit_count() const {
  int bits = 0;
  for (NodeId id : inputs_) bits += node(id).width;
  for (NodeId id : outputs_) bits += node(id).width;
  return bits;
}

namespace {

// Kahn's algorithm over combinational edges only: the *output value* of a
// Reg does not depend on its operands within a cycle, so those edges are
// excluded; the operands still appear in the order (they feed the
// sequential update). MemRead is combinational in its address and keeps
// its edges.
std::vector<NodeId> compute_topo_order(const std::vector<Node>& nodes_,
                                       const std::string& name_) {
  const size_t n = nodes_.size();
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<NodeId>> users(n);
  for (size_t i = 0; i < n; ++i) {
    const Node& nd = nodes_[i];
    if (nd.op == Op::Reg) continue;
    for (NodeId o : nd.operands) {
      users[static_cast<size_t>(o)].push_back(static_cast<NodeId>(i));
      ++indeg[i];
    }
  }
  std::queue<NodeId> ready;
  for (size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push(static_cast<NodeId>(i));
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    NodeId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (NodeId u : users[static_cast<size_t>(id)])
      if (--indeg[static_cast<size_t>(u)] == 0) ready.push(u);
  }
  HLSHC_CHECK(order.size() == n, "combinational cycle in design '"
                                     << name_ << "' (" << order.size() << '/'
                                     << n << " nodes ordered)");
  return order;
}

}  // namespace

const std::vector<NodeId>& Design::topo_order() const {
  if (!topo_cache_)
    topo_cache_ = std::make_shared<const std::vector<NodeId>>(
        compute_topo_order(nodes_, name_));
  return *topo_cache_;
}

std::shared_ptr<const std::vector<NodeId>> Design::topo_order_shared() const {
  topo_order();  // populate
  return topo_cache_;
}

void Design::validate() const {
  if (validated_) return;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    for (NodeId o : nd.operands) check_id(o);
    switch (nd.op) {
      case Op::Mux:
        HLSHC_CHECK(nd.operands.size() == 3, "mux arity");
        HLSHC_CHECK(node(nd.operands[0]).width == 1,
                    "mux selector must be 1 bit (node " << i << ')');
        break;
      case Op::Reg:
        HLSHC_CHECK(!nd.operands.empty(),
                    "register '" << nd.name << "' (node " << i
                                 << ") has no next-value");
        HLSHC_CHECK(node(nd.operands[0]).width == nd.width,
                    "register next-value width mismatch (node " << i << ')');
        break;
      case Op::MemRead:
        HLSHC_CHECK(nd.mem >= 0 &&
                        static_cast<size_t>(nd.mem) < memories_.size(),
                    "mem_read memory id");
        break;
      case Op::MemWrite:
        HLSHC_CHECK(nd.operands.size() == 3, "mem_write arity");
        break;
      default:
        break;
    }
  }
  (void)topo_order();  // throws on combinational cycles
  validated_ = true;   // only successful validations are cached
}

// kept: test-observation hook: pipeline and pass tests count ops with it.
DesignStats compute_stats(const Design& d) {
  DesignStats s;
  s.nodes = static_cast<int>(d.node_count());
  s.memories = static_cast<int>(d.memories().size());
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    switch (n.op) {
      case Op::Reg:
        ++s.regs;
        s.reg_bits += n.width;
        break;
      case Op::Add:
      case Op::Sub:
      case Op::Neg:
        ++s.adders;
        break;
      case Op::Mul: {
        bool has_const = false;
        for (NodeId o : n.operands)
          if (d.node(o).op == Op::Const) has_const = true;
        has_const ? ++s.const_mults : ++s.multipliers;
        break;
      }
      case Op::Mux:
        ++s.muxes;
        break;
      default:
        break;
    }
  }
  return s;
}

}  // namespace hlshc::netlist
