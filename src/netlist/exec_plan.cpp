#include "netlist/exec_plan.hpp"

#include <algorithm>
#include <mutex>

#include "obs/trace.hpp"

namespace hlshc::netlist {

namespace {

uint64_t width_mask(int width) {
  return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

}  // namespace

ExecPlan::ExecPlan(const Design& d) {
  obs::Span span("plan.compile", "netlist");
  span.arg("design", d.name())
      .arg("nodes", static_cast<int64_t>(d.node_count()));
  d.validate();
  const std::vector<NodeId>& order = d.topo_order();
  const size_t n = d.node_count();
  slot_count_ = n;

  // Levelize: sources (inputs, constants, register outputs) are level 0;
  // every other node settles one level after its slowest operand. Reg
  // operands are next-state logic, not a combinational dependency.
  std::vector<int32_t> level(n, 0);
  for (NodeId id : order) {
    const Node& nd = d.node(id);
    if (nd.op == Op::Input || nd.op == Op::Const || nd.op == Op::Reg) continue;
    int32_t lv = 0;
    for (NodeId o : nd.operands)
      lv = std::max(lv, level[static_cast<size_t>(o)] + 1);
    level[static_cast<size_t>(id)] = lv;
  }

  // Stream order: by (level, node id). Inputs are externally driven and
  // constants are hoisted, so neither occupies a per-cycle instruction.
  std::vector<NodeId> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Op op = d.node(static_cast<NodeId>(i)).op;
    if (op == Op::Input || op == Op::Const) continue;
    stream.push_back(static_cast<NodeId>(i));
  }
  // Within a level all instructions are independent, so group them by
  // opcode: the dispatch branch then sees long same-op runs and predicts.
  std::stable_sort(stream.begin(), stream.end(), [&](NodeId x, NodeId y) {
    const int32_t lx = level[static_cast<size_t>(x)];
    const int32_t ly = level[static_cast<size_t>(y)];
    if (lx != ly) return lx < ly;
    return d.node(x).op < d.node(y).op;
  });

  auto lower = [&](NodeId id) {
    const Node& nd = d.node(id);
    ExecInstr in;
    in.op = nd.op;
    in.dst = id;
    in.width = nd.width;
    in.mem = static_cast<int16_t>(nd.mem);
    in.dsh = static_cast<uint8_t>(64 - nd.width);
    if (!nd.operands.empty()) {
      in.a = nd.operands[0];
      in.amask = width_mask(d.node(in.a).width);
    }
    if (nd.operands.size() > 1) {
      in.b = nd.operands[1];
      in.bmask = width_mask(d.node(in.b).width);
    }
    if (nd.operands.size() > 2) in.c = nd.operands[2];
    switch (nd.op) {
      case Op::Const:
      case Op::Reg:
        in.imm = nd.imm;  // canonical constant / reset value
        break;
      case Op::Shl:
      case Op::AShr:
      case Op::LShr:
        in.imm = nd.imm;  // shift amount
        break;
      case Op::Slice:
        in.imm = nd.imm;  // low bit; width already encodes hi-lo+1
        break;
      case Op::Concat:
        in.imm = d.node(in.b).width;  // low operand's width
        break;
      case Op::MemRead:
        in.imm = d.memories()[static_cast<size_t>(nd.mem)].depth;
        break;
      default:
        break;
    }
    return in;
  };

  int32_t max_level = 0;
  for (NodeId id : stream)
    max_level = std::max(max_level, level[static_cast<size_t>(id)]);
  instrs_.reserve(stream.size());
  level_starts_.assign(static_cast<size_t>(max_level) + 2, 0);
  for (NodeId id : stream) {
    level_starts_[static_cast<size_t>(level[static_cast<size_t>(id)]) + 1]++;
    instrs_.push_back(lower(id));
  }
  for (size_t l = 1; l < level_starts_.size(); ++l)
    level_starts_[l] += level_starts_[l - 1];

  for (size_t i = 0; i < n; ++i) {
    const Node& nd = d.node(static_cast<NodeId>(i));
    if (nd.op == Op::Const) {
      const_instrs_.push_back(lower(static_cast<NodeId>(i)));
    } else if (nd.op == Op::Reg) {
      RegCommit rc;
      rc.reg = static_cast<int32_t>(i);
      rc.next = nd.operands[0];
      rc.enable = nd.operands.size() > 1 ? nd.operands[1] : -1;
      rc.init = nd.imm;
      reg_commits_.push_back(rc);
    }
  }

  // Memory writes commit in node order (later writes win on collisions),
  // exactly like the interpreter.
  for (NodeId wr : d.mem_writes()) {
    const Node& nd = d.node(wr);
    MemCommit mc;
    mc.mem = nd.mem;
    mc.addr = nd.operands[0];
    mc.data = nd.operands[1];
    mc.enable = nd.operands[2];
    mc.addr_mask = width_mask(d.node(mc.addr).width);
    mem_commits_.push_back(mc);
  }

  for (const Memory& m : d.memories())
    mem_shapes_.push_back(MemShape{m.width, m.depth});
}

std::shared_ptr<const ExecPlan> ExecPlan::for_design(const Design& design) {
  // Fault campaigns build one simulator per pool worker
  // over a shared design, so first use of a design's plan can race: guard
  // the check-compile-store sequence with one process-wide mutex. Compiles
  // are one-time per design and cheap relative to a campaign, so a single
  // mutex (rather than per-design state) keeps Design header-simple; after
  // the first compile every caller takes the lock briefly and reads the
  // cached handle.
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  auto cached =
      std::static_pointer_cast<const ExecPlan>(design.cached_exec_plan());
  if (cached) return cached;
  auto plan = std::make_shared<const ExecPlan>(design);
  design.set_cached_exec_plan(plan);
  return plan;
}

}  // namespace hlshc::netlist
