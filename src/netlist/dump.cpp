#include "netlist/dump.hpp"

#include <sstream>

namespace hlshc::netlist {

std::string dump_text(const Design& d) {
  std::ostringstream os;
  os << "design " << d.name() << " {\n";
  for (const Memory& m : d.memories())
    os << "  memory " << m.name << " : " << m.width << " x " << m.depth
       << "\n";
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    os << "  %" << i << " = " << op_name(n.op) << '<' << n.width << '>';
    if (!n.operands.empty()) {
      os << " (";
      for (size_t j = 0; j < n.operands.size(); ++j) {
        if (j) os << ", ";
        os << '%' << n.operands[j];
      }
      os << ')';
    }
    switch (n.op) {
      case Op::Const: os << " value=" << n.imm; break;
      case Op::Shl: case Op::AShr: case Op::LShr:
        os << " amount=" << n.imm; break;
      case Op::Slice: os << " [" << n.imm2 << ':' << n.imm << ']'; break;
      case Op::Reg: os << " init=" << n.imm; break;
      case Op::MemRead: case Op::MemWrite: os << " mem=" << n.mem; break;
      default: break;
    }
    if (!n.name.empty()) os << " \"" << n.name << '"';
    os << '\n';
  }
  os << "}\n";
  return os.str();
}

}  // namespace hlshc::netlist
