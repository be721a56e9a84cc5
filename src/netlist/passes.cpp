#include "netlist/passes.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "synth/csd.hpp"

namespace hlshc::netlist {

namespace {

/// Evaluate a purely combinational node from constant operand values.
std::optional<BitVec> eval_const(const Design& d, const Node& n,
                                 const std::vector<std::optional<BitVec>>& v) {
  auto get = [&](int i) -> const BitVec& {
    return *v[static_cast<size_t>(n.operands[static_cast<size_t>(i)])];
  };
  for (NodeId o : n.operands)
    if (!v[static_cast<size_t>(o)].has_value()) return std::nullopt;

  const int w = n.width;
  switch (n.op) {
    case Op::Add: return BitVec::add(get(0), get(1), w);
    case Op::Sub: return BitVec::sub(get(0), get(1), w);
    case Op::Mul: return BitVec::mul(get(0), get(1), w);
    case Op::Neg: return BitVec::neg(get(0), w);
    case Op::Shl: return BitVec::shl(get(0), static_cast<int>(n.imm), w);
    case Op::AShr: return BitVec::ashr(get(0), static_cast<int>(n.imm), w);
    case Op::LShr: return BitVec::lshr(get(0), static_cast<int>(n.imm), w);
    case Op::And: return BitVec::band(get(0), get(1), w);
    case Op::Or: return BitVec::bor(get(0), get(1), w);
    case Op::Xor: return BitVec::bxor(get(0), get(1), w);
    case Op::Not: return BitVec::bnot(get(0), w);
    case Op::Eq: return BitVec::eq(get(0), get(1));
    case Op::Ne: return BitVec::ne(get(0), get(1));
    case Op::Slt: return BitVec::slt(get(0), get(1));
    case Op::Sle: return BitVec::sle(get(0), get(1));
    case Op::Sgt: return BitVec::sgt(get(0), get(1));
    case Op::Sge: return BitVec::sge(get(0), get(1));
    case Op::Ult: return BitVec::ult(get(0), get(1));
    case Op::Mux: return BitVec::mux(get(0), get(1), get(2), w);
    case Op::Slice:
      return BitVec::slice(get(0), static_cast<int>(n.imm2),
                           static_cast<int>(n.imm));
    case Op::Concat: return BitVec::concat(get(0), get(1));
    case Op::SExt: return BitVec::sext(get(0), w);
    case Op::ZExt: return BitVec::zext(get(0), w);
    default: return std::nullopt;  // sequential / ports: never folded
  }
  (void)d;
}

/// Path-compressed lookup in a node-replacement forest.
NodeId find_repl(std::vector<NodeId>& repl, NodeId id) {
  while (repl[static_cast<size_t>(id)] != id) {
    repl[static_cast<size_t>(id)] =
        repl[static_cast<size_t>(repl[static_cast<size_t>(id)])];
    id = repl[static_cast<size_t>(id)];
  }
  return id;
}

/// Rewrites every operand reference through `repl`, returning the number of
/// slots that changed. Covers register feedback edges because it runs after
/// the whole classification sweep.
int apply_replacements(Design& d, std::vector<NodeId>& repl) {
  int changes = 0;
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    for (size_t k = 0; k < n.operands.size(); ++k) {
      NodeId target = find_repl(repl, n.operands[k]);
      if (target != n.operands[k]) {
        d.mutable_node(static_cast<NodeId>(i)).operands[k] = target;
        ++changes;
      }
    }
  }
  return changes;
}

}  // namespace

size_t PassStats::nodes_before() const {
  return runs.empty() ? 0 : runs.front().nodes_before;
}

size_t PassStats::nodes_after() const {
  return runs.empty() ? 0 : runs.back().nodes_after;
}

void PassStats::merge(const PassStats& other) {
  folded += other.folded;
  removed += other.removed;
  iterations += other.iterations;
  runs.insert(runs.end(), other.runs.begin(), other.runs.end());
}

PassStats fold_constants(Design& d) {
  PassStats stats;
  const auto order = d.topo_order();
  std::vector<std::optional<BitVec>> values(d.node_count());
  for (NodeId id : order) {
    Node& n = d.mutable_node(id);
    if (n.op == Op::Const) {
      values[static_cast<size_t>(id)] = BitVec(n.width, n.imm);
      continue;
    }
    auto folded = eval_const(d, n, values);
    if (folded.has_value()) {
      values[static_cast<size_t>(id)] = *folded;
      n.op = Op::Const;
      n.imm = folded->to_int64();
      n.operands.clear();
      ++stats.folded;
    }
  }
  return stats;
}

Design eliminate_dead(const Design& d, PassStats* stats) {
  // Mark: everything reachable (through any operand edge, including through
  // registers) from outputs and memory writes is live.
  std::vector<bool> live(d.node_count(), false);
  std::vector<NodeId> work;
  auto mark = [&](NodeId id) {
    if (!live[static_cast<size_t>(id)]) {
      live[static_cast<size_t>(id)] = true;
      work.push_back(id);
    }
  };
  for (NodeId id : d.outputs()) mark(id);
  for (NodeId id : d.mem_writes()) mark(id);
  while (!work.empty()) {
    NodeId id = work.back();
    work.pop_back();
    for (NodeId o : d.node(id).operands) mark(o);
  }
  // Inputs are ports: they survive even if unused (they are pins).
  for (NodeId id : d.inputs()) live[static_cast<size_t>(id)] = true;

  Design out(d.name());
  std::unordered_map<NodeId, NodeId> remap;
  for (int m = 0; m < static_cast<int>(d.memories().size()); ++m) {
    const Memory& mem = d.memories()[static_cast<size_t>(m)];
    int id = out.add_memory(mem.name, mem.width, mem.depth);
    HLSHC_CHECK(id == m, "memory remap mismatch");
  }
  int removed = 0;
  // Two passes so register feedback (reg -> logic -> same reg) remaps
  // correctly: first create all live nodes with empty reg operands, then
  // wire the register next-values.
  for (size_t i = 0; i < d.node_count(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    if (!live[i]) {
      ++removed;
      continue;
    }
    const Node& n = d.node(id);
    if (n.op == Op::Reg) {
      remap[id] = out.reg(n.width, n.imm, n.name);
      continue;
    }
    Node copy = n;
    copy.operands.clear();
    for (NodeId o : n.operands) {
      auto it = remap.find(o);
      HLSHC_CHECK(it != remap.end(),
                  "dangling operand during DCE (non-topological input)");
      copy.operands.push_back(it->second);
    }
    // Re-push via the public builder path where bookkeeping matters.
    NodeId nid;
    if (n.op == Op::Input) {
      nid = out.input(n.name, n.width);
    } else if (n.op == Op::Output) {
      nid = out.output(n.name, copy.operands[0]);
    } else if (n.op == Op::MemWrite) {
      nid = out.mem_write(n.mem, copy.operands[0], copy.operands[1],
                          copy.operands[2]);
    } else {
      // Generic copy through mutable access: build a placeholder constant
      // and overwrite it. This keeps one code path for all comb ops.
      nid = out.constant(n.width, 0);
      Node& dst = out.mutable_node(nid);
      dst = copy;
    }
    remap[id] = nid;
  }
  for (size_t i = 0; i < d.node_count(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    if (!live[i]) continue;
    const Node& n = d.node(id);
    if (n.op != Op::Reg) continue;
    HLSHC_CHECK(!n.operands.empty(), "live register without next-value");
    NodeId next = remap.at(n.operands[0]);
    NodeId en = n.operands.size() > 1 ? remap.at(n.operands[1]) : kInvalidNode;
    out.set_reg_next(remap.at(id), next, en);
  }
  if (stats) stats->removed += removed;
  return out;
}

int propagate_copies(Design& d) {
  // Classification sweep in index order (a valid topo order for
  // combinational nodes: only register feedback edges point forward), then
  // one rewrite sweep so feedback operands are forwarded too.
  std::vector<NodeId> repl(d.node_count());
  std::iota(repl.begin(), repl.end(), 0);
  for (size_t i = 0; i < d.node_count(); ++i) {
    const Node& n = d.node(static_cast<NodeId>(i));
    if (n.operands.empty()) continue;
    const int src_width = d.node(find_repl(repl, n.operands[0])).width;
    bool is_copy = false;
    switch (n.op) {
      case Op::SExt:
      case Op::ZExt:
        is_copy = n.width == src_width;
        break;
      case Op::Slice:
        is_copy = n.imm == 0 && n.imm2 == src_width - 1;
        break;
      case Op::Shl:
      case Op::AShr:
      case Op::LShr:
        is_copy = n.imm == 0 && n.width == src_width;
        break;
      default:
        break;
    }
    if (is_copy)
      repl[i] = find_repl(repl, n.operands[0]);
  }
  return apply_replacements(d, repl);
}

int simplify_mux_bool(Design& d) {
  int rewrites = 0;
  std::vector<NodeId> repl(d.node_count());
  std::iota(repl.begin(), repl.end(), 0);

  for (size_t i = 0; i < d.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    // Resolve operands through replacements made earlier this sweep so
    // chains (e.g. x^x feeding a mux select) simplify in one pass.
    const Node& n = d.node(id);
    std::vector<NodeId> ops;
    ops.reserve(n.operands.size());
    for (NodeId o : n.operands) ops.push_back(find_repl(repl, o));

    auto imm_of = [&](size_t k) -> std::optional<int64_t> {
      const Node& opn = d.node(ops[k]);
      if (opn.op != Op::Const) return std::nullopt;
      return opn.imm;  // canonical sign-extended (all-ones == -1)
    };
    // Rewrite node `id` to a width-adapted copy of `src`. SExt of the
    // canonical sign-extended value is exact at any width relation; when the
    // widths match, users are forwarded directly this same sweep.
    auto to_copy = [&](NodeId src) {
      Node& m = d.mutable_node(id);
      m.op = Op::SExt;
      m.operands = {src};
      m.imm = 0;
      m.imm2 = 0;
      if (d.node(src).width == m.width) repl[i] = src;
      ++rewrites;
    };
    auto to_const = [&](int64_t value) {
      Node& m = d.mutable_node(id);
      m.op = Op::Const;
      m.operands.clear();
      m.imm = BitVec(m.width, value).to_int64();
      m.imm2 = 0;
      ++rewrites;
    };
    auto to_unary = [&](Op op, NodeId src) {
      Node& m = d.mutable_node(id);
      m.op = op;
      m.operands = {src};
      m.imm = 0;
      m.imm2 = 0;
      ++rewrites;
    };

    switch (n.op) {
      case Op::Mux: {
        if (auto sel = imm_of(0)) {
          to_copy(*sel != 0 ? ops[1] : ops[2]);
        } else if (ops[1] == ops[2]) {
          to_copy(ops[1]);  // mux(c,a,a) -> a
        }
        break;
      }
      case Op::And: {
        auto a = imm_of(0), b = imm_of(1);
        if ((a && *a == 0) || (b && *b == 0)) to_const(0);
        else if (a && *a == -1) to_copy(ops[1]);
        else if (b && *b == -1) to_copy(ops[0]);
        else if (ops[0] == ops[1]) to_copy(ops[0]);
        break;
      }
      case Op::Or: {
        auto a = imm_of(0), b = imm_of(1);
        if ((a && *a == -1) || (b && *b == -1)) to_const(-1);
        else if (a && *a == 0) to_copy(ops[1]);
        else if (b && *b == 0) to_copy(ops[0]);
        else if (ops[0] == ops[1]) to_copy(ops[0]);
        break;
      }
      case Op::Xor: {
        auto a = imm_of(0), b = imm_of(1);
        if (ops[0] == ops[1]) to_const(0);
        else if (a && *a == 0) to_copy(ops[1]);
        else if (b && *b == 0) to_copy(ops[0]);
        else if (a && *a == -1) to_unary(Op::Not, ops[1]);
        else if (b && *b == -1) to_unary(Op::Not, ops[0]);
        break;
      }
      case Op::Add: {
        auto a = imm_of(0), b = imm_of(1);
        if (a && *a == 0) to_copy(ops[1]);
        else if (b && *b == 0) to_copy(ops[0]);
        break;
      }
      case Op::Sub: {
        auto a = imm_of(0), b = imm_of(1);
        if (ops[0] == ops[1]) to_const(0);
        else if (b && *b == 0) to_copy(ops[0]);
        else if (a && *a == 0) to_unary(Op::Neg, ops[1]);
        break;
      }
      case Op::Mul: {
        auto a = imm_of(0), b = imm_of(1);
        if ((a && *a == 0) || (b && *b == 0)) to_const(0);
        else if (a && *a == 1) to_copy(ops[1]);
        else if (b && *b == 1) to_copy(ops[0]);
        else if (a && *a == -1) to_unary(Op::Neg, ops[1]);
        else if (b && *b == -1) to_unary(Op::Neg, ops[0]);
        break;
      }
      case Op::Not: {
        // not(not(x)) -> x, exact only when no width change truncates bits.
        const Node& inner = d.node(ops[0]);
        if (inner.op == Op::Not && inner.width == n.width) {
          NodeId x = find_repl(repl, inner.operands[0]);
          if (d.node(x).width == n.width) to_copy(x);
        }
        break;
      }
      case Op::Neg: {
        const Node& inner = d.node(ops[0]);
        if (inner.op == Op::Neg && inner.width == n.width) {
          NodeId x = find_repl(repl, inner.operands[0]);
          if (d.node(x).width == n.width) to_copy(x);
        }
        break;
      }
      case Op::Eq:
      case Op::Sle:
      case Op::Sge: {
        if (ops[0] == ops[1]) to_const(1);
        break;
      }
      case Op::Ne:
      case Op::Slt:
      case Op::Sgt:
      case Op::Ult: {
        if (ops[0] == ops[1]) to_const(0);
        break;
      }
      default:
        break;
    }
  }
  // Forward users of same-width copies created above (and fix feedback
  // edges). Operand rewrites are not counted again on top of the node
  // rewrites — the node count alone decides fixed-point convergence, and the
  // next round's copy-prop handles any remaining SExt shims.
  std::vector<NodeId> forward = repl;
  apply_replacements(d, forward);
  return rewrites;
}

int eliminate_common_subexpr(Design& d) {
  std::vector<NodeId> repl(d.node_count());
  std::iota(repl.begin(), repl.end(), 0);
  std::unordered_map<std::string, NodeId> table;
  table.reserve(d.node_count());
  for (size_t i = 0; i < d.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const Node& n = d.node(id);
    switch (n.op) {
      case Op::Input:
      case Op::Output:
      case Op::Reg:       // stateful: two regs with one next are distinct FFs
      case Op::MemWrite:  // side-effecting
        continue;
      default:
        break;
    }
    // MemRead is combinational here (same memory + same address reads the
    // same port value within a cycle), so it participates like any comb op.
    std::vector<NodeId> ops;
    ops.reserve(n.operands.size());
    for (NodeId o : n.operands) ops.push_back(find_repl(repl, o));
    switch (n.op) {
      case Op::Add:
      case Op::Mul:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Eq:
      case Op::Ne:
        std::sort(ops.begin(), ops.end());  // commutative: canonical order
        break;
      default:
        break;
    }
    std::string key;
    key.reserve(32);
    key += std::to_string(static_cast<int>(n.op));
    key += '|';
    key += std::to_string(n.width);
    key += '|';
    key += std::to_string(n.imm);
    key += '|';
    key += std::to_string(n.imm2);
    key += '|';
    key += std::to_string(n.mem);
    for (NodeId o : ops) {
      key += ',';
      key += std::to_string(o);
    }
    auto [it, inserted] = table.emplace(std::move(key), id);
    if (!inserted) repl[i] = it->second;
  }
  return apply_replacements(d, repl);
}

NodeId build_shift_add(Design& d, NodeId x, int64_t constant, int width,
                       bool csd) {
  if (constant == 0) return d.constant(width, 0);

  struct Digit {
    int shift;
    int sign;
  };
  std::vector<Digit> digits;
  if (csd) {
    for (const synth::CsdDigit& g : synth::csd_decompose(constant))
      digits.push_back({g.shift, g.sign});
  } else {
    bool neg = constant < 0;
    uint64_t v = neg ? static_cast<uint64_t>(-constant)
                     : static_cast<uint64_t>(constant);
    for (int s = 0; v != 0; ++s, v >>= 1)
      if (v & 1) digits.push_back({s, neg ? -1 : +1});
  }

  // Partial products are just wires (shifts); combine with a balanced
  // adder tree, folding signs into adds/subs.
  struct Term {
    NodeId value;
    int sign;
  };
  std::vector<Term> terms;
  for (const Digit& g : digits)
    terms.push_back({d.shl(d.sext(x, width), g.shift, width), g.sign});

  while (terms.size() > 1) {
    std::vector<Term> next;
    for (size_t i = 0; i + 1 < terms.size(); i += 2) {
      Term a = terms[i], b = terms[i + 1];
      // Normalize so the combined term carries sign +1 where possible.
      NodeId v;
      int sign;
      if (a.sign == b.sign) {
        v = d.add(a.value, b.value, width);
        sign = a.sign;
      } else if (a.sign > 0) {
        v = d.sub(a.value, b.value, width);
        sign = +1;
      } else {
        v = d.sub(b.value, a.value, width);
        sign = +1;
      }
      next.push_back({v, sign});
    }
    if (terms.size() % 2) next.push_back(terms.back());
    terms = std::move(next);
  }
  NodeId out = terms[0].value;
  if (terms[0].sign < 0) out = d.neg(out, width);
  return out;
}

int strength_reduce_mults(Design& d) {
  // Rebuilds the design so each shift-add tree is spliced in *before* its
  // consumers: appending trees to the existing design would create forward
  // operand references, which the index-order invariant (combinational
  // operands always point backwards) forbids.
  int expanded = 0;
  Design out(d.name());
  for (int m = 0; m < static_cast<int>(d.memories().size()); ++m) {
    const Memory& mem = d.memories()[static_cast<size_t>(m)];
    int mid = out.add_memory(mem.name, mem.width, mem.depth);
    HLSHC_CHECK(mid == m, "memory remap mismatch");
  }
  std::unordered_map<NodeId, NodeId> remap;
  for (size_t i = 0; i < d.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const Node& n = d.node(id);
    if (n.op == Op::Reg) {
      remap[id] = out.reg(n.width, n.imm, n.name);
      continue;
    }
    if (n.op == Op::Mul) {
      const bool a_const = d.node(n.operands[0]).op == Op::Const;
      const bool b_const = d.node(n.operands[1]).op == Op::Const;
      if (a_const != b_const) {  // both const is fold's job
        const int64_t c = a_const ? d.node(n.operands[0]).imm
                                  : d.node(n.operands[1]).imm;
        const NodeId x = remap.at(a_const ? n.operands[1] : n.operands[0]);
        remap[id] = build_shift_add(out, x, c, n.width, /*csd=*/true);
        ++expanded;
        continue;
      }
    }
    Node copy = n;
    copy.operands.clear();
    for (NodeId o : n.operands) copy.operands.push_back(remap.at(o));
    NodeId nid;
    if (n.op == Op::Input) {
      nid = out.input(n.name, n.width);
    } else if (n.op == Op::Output) {
      nid = out.output(n.name, copy.operands[0]);
    } else if (n.op == Op::MemWrite) {
      nid = out.mem_write(n.mem, copy.operands[0], copy.operands[1],
                          copy.operands[2]);
    } else {
      nid = out.constant(n.width, 0);
      out.mutable_node(nid) = copy;
    }
    remap[id] = nid;
  }
  for (size_t i = 0; i < d.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const Node& n = d.node(id);
    if (n.op != Op::Reg) continue;
    HLSHC_CHECK(!n.operands.empty(), "register without next-value");
    NodeId next = remap.at(n.operands[0]);
    NodeId en = n.operands.size() > 1 ? remap.at(n.operands[1]) : kInvalidNode;
    out.set_reg_next(remap.at(id), next, en);
  }
  if (expanded > 0) d = std::move(out);
  return expanded;
}

NodeId majority3(Design& d, NodeId a, NodeId b, NodeId c) {
  const int w = d.node(a).width;
  HLSHC_CHECK(d.node(b).width == w && d.node(c).width == w,
              "majority3: operand widths " << w << '/' << d.node(b).width
                                           << '/' << d.node(c).width
                                           << " differ");
  NodeId ab = d.band(a, b, w);
  NodeId ac = d.band(a, c, w);
  NodeId bc = d.band(b, c, w);
  return d.bor(d.bor(ab, ac, w), bc, w);
}

}  // namespace hlshc::netlist
