#include "sim/engine.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"

namespace hlshc::sim {

using netlist::kInvalidNode;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

Engine::Engine(const netlist::Design& design) : design_(design) {
  design_.validate();
}

void Engine::reset() {
  reset_state();
  cycle_ = 0;
  evaluated_ = false;
  act_prev_valid_ = false;  // no toggle accounting across a reset
  seu_fired_ = false;
  fire_due_seu();
}

void Engine::fire_due_seu() {
  if (!fault_.seu() || seu_fired_ || cycle_ != fault_.cycle) return;
  if (fault_.kind == LaneFault::Kind::kSeuReg)
    flip_reg_bit(fault_.node, fault_.bit);
  else
    flip_mem_bit(fault_.mem, fault_.addr, fault_.bit);
  seu_fired_ = true;
}

void Engine::eval() {
  if (obs::enabled()) {
    obs::ScopedTimer t(obs::registry().timer("sim.eval"));
    eval_comb();
  } else {
    eval_comb();
  }
  evaluated_ = true;
}

void Engine::step() {
  if (cycle_budget_ && cycle_ >= cycle_budget_)
    throw SimTimeout("cycle budget exhausted in design '" + design_.name() +
                         '\'',
                     cycle_);
  // Deadline poll every 256 cycles: one clock read per poll, one pointer
  // test per step when disarmed — cheap enough for multi-million-cycle runs
  // while keeping any simulation interruptible within its wall budget.
  if (deadline_ && (cycle_ & 0xFF) == 0 && deadline_->expired())
    deadline_->check("simulation of design '" + design_.name() + '\'');
  if (!evaluated_) eval();
  // Sample the settled pre-edge state — these are the values being latched,
  // so toggle/write accounting sees exactly what the clock edge sees.
  if (activity_) accumulate_activity();
  if (obs::enabled()) {
    obs::ScopedTimer t(obs::registry().timer("sim.commit"));
    commit_state();
  } else {
    commit_state();
  }
  ++cycle_;
  fire_due_seu();
  evaluated_ = false;
  eval();
}

// kept: test-oracle driver; the ROADMAP one-testbench item owns it.
void Engine::run(int64_t n) {
  HLSHC_CHECK(n >= 0, "negative cycle count " << n);
  obs::Span span("engine.run", "sim");
  span.arg("design", design_.name())
      .arg("engine", kind_name())
      .arg("cycles", n);
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) step();
}

void Engine::set_activity_enabled(bool on) {
  activity_ = on;
  if (!on) return;
  const size_t n = design_.node_count();
  profile_ = ActivityProfile{};
  profile_.toggles.assign(n, 0);
  profile_.reg_writes.assign(n, 0);
  profile_.mem_reads.assign(design_.memories().size(), 0);
  profile_.mem_writes.assign(design_.memories().size(), 0);
  act_prev_.assign(n, 0);
  act_cur_.assign(n, 0);
  act_prev_valid_ = false;
  act_mask_.assign(n, 0);
  act_regs_.clear();
  act_mem_reads_.clear();
  act_mem_writes_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Node& nd = design_.node(static_cast<NodeId>(i));
    act_mask_[i] = nd.width >= 64 ? ~uint64_t{0}
                                  : (uint64_t{1} << nd.width) - 1;
    switch (nd.op) {
      case Op::Reg:
        act_regs_.push_back({static_cast<int32_t>(i),
                             nd.operands.size() < 2 ? -1 : nd.operands[1]});
        break;
      case Op::MemRead:
        act_mem_reads_.push_back({nd.operands[0], nd.mem});
        break;
      case Op::MemWrite:
        act_mem_writes_.push_back({nd.operands[2], nd.mem});
        break;
      default: break;
    }
  }
}

void Engine::accumulate_activity() {
  snapshot_values(act_cur_.data());
  const size_t n = design_.node_count();
  if (act_prev_valid_) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t diff = (static_cast<uint64_t>(act_cur_[i]) ^
                       static_cast<uint64_t>(act_prev_[i])) &
                      act_mask_[i];
      profile_.toggles[i] += static_cast<uint64_t>(std::popcount(diff));
    }
    // A read port is "active" when it presents a new address.
    for (const MemWatch& r : act_mem_reads_)
      if (act_cur_[r.node] != act_prev_[r.node])
        ++profile_.mem_reads[static_cast<size_t>(r.mem)];
  }
  for (const RegWatch& rw : act_regs_)
    if (rw.enable < 0 || act_cur_[rw.enable] != 0)
      ++profile_.reg_writes[static_cast<size_t>(rw.reg)];
  for (const MemWatch& w : act_mem_writes_)
    if (act_cur_[w.node] != 0)
      ++profile_.mem_writes[static_cast<size_t>(w.mem)];
  ++profile_.cycles;
  std::swap(act_prev_, act_cur_);
  act_prev_valid_ = true;
}

void Engine::set_input(std::string_view port, const BitVec& value) {
  NodeId id = design_.find_input(port);
  HLSHC_CHECK(id != kInvalidNode, "no input port '" << port << "' in design '"
                                                    << design_.name() << '\'');
  poke_input(id, value.to_int64());
  evaluated_ = false;
}

// kept: test-oracle driver; the ROADMAP one-testbench item owns it.
void Engine::set_input(std::string_view port, int64_t value) {
  NodeId id = design_.find_input(port);
  HLSHC_CHECK(id != kInvalidNode, "no input port '" << port << "' in design '"
                                                    << design_.name() << '\'');
  poke_input(id, value);
  evaluated_ = false;
}

void Engine::poke(NodeId input, int64_t value) {
  const Node& n = design_.node(input);
  HLSHC_CHECK(n.op == Op::Input,
              "poke: node " << input << " (" << netlist::op_name(n.op)
                            << ") is not an input");
  poke_input(input, value);
  evaluated_ = false;
}

BitVec Engine::output(std::string_view port) const {
  NodeId id = design_.find_output(port);
  HLSHC_CHECK(id != kInvalidNode, "no output port '" << port
                                                     << "' in design '"
                                                     << design_.name() << '\'');
  return value(id);
}

// kept: test-oracle driver; the ROADMAP one-testbench item owns it.
int64_t Engine::output_i64(std::string_view port) const {
  return output(port).to_int64();
}

void validate_lane_fault(const netlist::Design& design,
                         const LaneFault& fault) {
  if (fault.kind == LaneFault::Kind::kNone) return;
  if (fault.kind == LaneFault::Kind::kSeuMem) {
    HLSHC_CHECK(fault.mem >= 0 &&
                    static_cast<size_t>(fault.mem) < design.memories().size(),
                "fault targets invalid memory " << fault.mem);
    const netlist::Memory& m =
        design.memories()[static_cast<size_t>(fault.mem)];
    HLSHC_CHECK(fault.addr >= 0 && fault.addr < m.depth && fault.bit >= 0 &&
                    fault.bit < m.width,
                "fault addr " << fault.addr << " / bit " << fault.bit
                              << " outside memory shape " << m.depth << 'x'
                              << m.width);
    return;
  }
  HLSHC_CHECK(fault.node != kInvalidNode &&
                  static_cast<size_t>(fault.node) < design.node_count(),
              "fault targets invalid node " << fault.node);
  const Node& n = design.node(fault.node);
  HLSHC_CHECK(fault.kind != LaneFault::Kind::kSeuReg || n.op == Op::Reg,
              "SEU target node " << fault.node << " ("
                                 << netlist::op_name(n.op)
                                 << ") is not a register");
  HLSHC_CHECK(fault.bit >= 0 && fault.bit < n.width,
              "fault bit " << fault.bit << " outside node width " << n.width);
}

// kept: test-oracle driver; the ROADMAP one-testbench item owns it.
void Engine::arm_fault(const LaneFault& fault) {
  validate_lane_fault(design_, fault);
  fault_ = fault;
  comb_node_ = fault.combinational() ? fault.node : kInvalidNode;
  seu_fired_ = false;
  evaluated_ = false;
  on_fault_armed();
}

void Engine::flip_reg_bit(NodeId reg, int bit) {
  const Node& n = design_.node(reg);
  HLSHC_CHECK(n.op == Op::Reg,
              "flip_reg_bit: node " << reg << " (" << netlist::op_name(n.op)
                                    << ") is not a register");
  HLSHC_CHECK(bit >= 0 && bit < n.width,
              "flip_reg_bit: bit " << bit << " out of width " << n.width);
  do_flip_reg_bit(reg, bit, n.width);
  evaluated_ = false;
}

void Engine::flip_mem_bit(int mem_id, int addr, int bit) {
  HLSHC_CHECK(mem_id >= 0 && static_cast<size_t>(mem_id) <
                                 design_.memories().size(),
              "flip_mem_bit: no memory " << mem_id << " in design '"
                                         << design_.name() << '\'');
  const netlist::Memory& m = design_.memories()[static_cast<size_t>(mem_id)];
  HLSHC_CHECK(addr >= 0 && addr < m.depth,
              "flip_mem_bit: address " << addr << " out of depth " << m.depth);
  HLSHC_CHECK(bit >= 0 && bit < m.width,
              "flip_mem_bit: bit " << bit << " out of width " << m.width);
  do_flip_mem_bit(mem_id, addr, bit, m.width);
  evaluated_ = false;
}

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kInterpreter: return "interpreter";
    case EngineKind::kCompiled: return "compiled";
  }
  return "?";
}

std::unique_ptr<Engine> make_engine(const netlist::Design& design,
                                    EngineKind kind) {
  switch (kind) {
    case EngineKind::kInterpreter: return std::make_unique<Simulator>(design);
    case EngineKind::kCompiled:
      return std::make_unique<CompiledSimulator>(design);
  }
  HLSHC_UNREACHABLE("bad EngineKind");
}

}  // namespace hlshc::sim
