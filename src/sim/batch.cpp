#include "sim/batch.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "sim/batch_kernels.hpp"

namespace hlshc::sim {

using netlist::ExecInstr;
using netlist::ExecPlan;
using netlist::MemCommit;
using netlist::MemShape;
using netlist::NodeId;
using netlist::Op;
using netlist::RegCommit;

namespace {

/// Truncate to the instruction's width, then sign-extend — the same
/// branchless canonicalization pair as the stream kernels' wrap().
inline int64_t wrap(uint8_t dsh, uint64_t u) {
  return static_cast<int64_t>(u << dsh) >> dsh;
}

inline int64_t canon(int width, int64_t v) {
  return BitVec(width, v).to_int64();
}

/// Left-packs a lane-major array from `old_stride` columns down to
/// `new_stride`, keeping old column c at newcol[c] (-1 = dropped). Every
/// write lands at or before its read, so the in-place packing is safe.
void compact_columns(LaneVec& v, size_t rows, int old_stride,
                     const std::vector<int>& newcol, int new_stride) {
  const size_t a = static_cast<size_t>(old_stride);
  const size_t b = static_cast<size_t>(new_stride);
  for (size_t r = 0; r < rows; ++r) {
    const size_t src = r * a;
    const size_t dst = r * b;
    for (size_t c = 0; c < a; ++c)
      if (newcol[c] >= 0) v[dst + static_cast<size_t>(newcol[c])] = v[src + c];
  }
  v.resize(rows * b);
}

}  // namespace

BatchSimulator::BatchSimulator(const netlist::Design& design, int lanes)
    : design_(design), plan_(ExecPlan::for_design(design)), lanes_(lanes) {
  HLSHC_CHECK(lanes >= 1 && lanes <= 64,
              "lane count " << lanes << " outside [1, 64]");
  design_.validate();
  const size_t l = static_cast<size_t>(lanes_);
  active_ = lanes_;
  live_ = lanes_;
  values_.assign(plan_->slot_count() * l, 0);
  state_.assign(plan_->slot_count() * l, 0);
  for (const MemShape& m : plan_->mem_shapes())
    mem_.emplace_back(static_cast<size_t>(m.depth) * l, int64_t{0});
  phys_.resize(l);
  for (int i = 0; i < lanes_; ++i) phys_[static_cast<size_t>(i)] = i;
  retired_.assign(l, 0);
  base_.assign(l, 0);
  faults_.assign(l, LaneFault{});
  seu_fired_.assign(l, 0);
  instr_of_slot_.assign(plan_->slot_count(), -1);
  for (size_t i = 0; i < plan_->instrs().size(); ++i)
    instr_of_slot_[static_cast<size_t>(plan_->instrs()[i].dst)] =
        static_cast<int64_t>(i);
  views_.resize(l);
  for (int i = 0; i < lanes_; ++i) {
    views_[static_cast<size_t>(i)].sim_ = this;
    views_[static_cast<size_t>(i)].lane_ = i;
  }
  stream_kernel_ = select_stream_kernel(lanes_);
  reset_all();
}

PortAccess& BatchSimulator::lane(int l) {
  HLSHC_CHECK(l >= 0 && l < lanes_,
              "lane " << l << " outside [0, " << lanes_ << ')');
  return views_[static_cast<size_t>(l)];
}

void BatchSimulator::restore_consts(int lane) {
  // Constants are hoisted out of the per-cycle stream; rematerialize this
  // lane's const slots so a transform armed earlier cannot outlive itself
  // (the interpreter recomputes constants every settle).
  if (retired_[static_cast<size_t>(lane)])
    return;  // the next reset_all() restores everything
  for (const ExecInstr& in : plan_->const_instrs()) cell(lane, in.dst) = in.imm;
}

void BatchSimulator::revive_lanes() {
  if (live_ == lanes_) return;
  if (active_ != lanes_) {
    const size_t l = static_cast<size_t>(lanes_);
    values_.assign(plan_->slot_count() * l, 0);
    state_.assign(plan_->slot_count() * l, 0);
    for (size_t m = 0; m < mem_.size(); ++m)
      mem_[m].assign(
          static_cast<size_t>(plan_->mem_shapes()[m].depth) * l, int64_t{0});
    active_ = lanes_;
    stream_kernel_ = select_stream_kernel(lanes_);
  }
  for (int i = 0; i < lanes_; ++i) phys_[static_cast<size_t>(i)] = i;
  std::fill(retired_.begin(), retired_.end(), uint8_t{0});
  live_ = lanes_;
}

void BatchSimulator::reset_all() {
  revive_lanes();  // retirement never outlives a reset
  const size_t L = static_cast<size_t>(lanes_);
  for (const RegCommit& rc : plan_->reg_commits()) {
    int64_t* s = state_.data() + static_cast<size_t>(rc.reg) * L;
    std::fill(s, s + L, rc.init);
  }
  for (LaneVec& mem : mem_) std::fill(mem.begin(), mem.end(), int64_t{0});
  for (NodeId in : design_.inputs()) {
    int64_t* v = values_.data() + static_cast<size_t>(in) * L;
    std::fill(v, v + L, int64_t{0});
  }
  for (int i = 0; i < lanes_; ++i) restore_consts(i);
  // Re-anchor every armed fault onto the fresh sweep clock: faults_ stores
  // sweep-absolute cycles (base_[l] + lane-relative), and both collapse to
  // the caller's lane-relative cycle at base 0.
  for (int i = 0; i < lanes_; ++i) {
    const size_t sl = static_cast<size_t>(i);
    faults_[sl].cycle -= base_[sl];
    base_[sl] = 0;
  }
  rebuild_comb_index();
  cycle_ = 0;
  evaluated_ = false;
  std::fill(seu_fired_.begin(), seu_fired_.end(), uint8_t{0});
  // Engine::reset() ends with the due-SEU check: cycle-0 SEUs land on the
  // reset state, before the first settle.
  seu_flips();
}

void BatchSimulator::poke_input(int lane, NodeId id, int64_t value) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  const netlist::Node& n = design_.node(id);
  HLSHC_CHECK(n.op == Op::Input,
              "poke target " << id << " is not an input of design '"
                             << design_.name() << '\'');
  HLSHC_CHECK(!retired_[static_cast<size_t>(lane)],
              "poke on retired lane " << lane);
  cell(lane, id) = canon(n.width, value);
  evaluated_ = false;
}

BitVec BatchSimulator::value(int lane, NodeId id) const {
  return BitVec(design_.node(id).width, value_i64(lane, id));
}

// ---- execution -------------------------------------------------------------

StreamKernelFn select_stream_kernel(int lanes) {
  // One-time CPUID probe per construction; the result is stored in the
  // simulator's function pointer, so the hot path never re-tests.
#if defined(HLSHC_BATCH_HAVE_V4)
  if (__builtin_cpu_supports("x86-64-v4")) return select_stream_kernel_v4(lanes);
#endif
#if defined(HLSHC_BATCH_HAVE_V3)
  if (__builtin_cpu_supports("x86-64-v3")) return select_stream_kernel_v3(lanes);
#endif
  return select_stream_kernel_base(lanes);
}

void BatchSimulator::apply_comb_entry(const CombEntry& e) {
  int64_t& v = cell(e.lane, e.slot);
  const int64_t m = static_cast<int64_t>(uint64_t{1} << e.bit);
  switch (e.kind) {
    case LaneFault::Kind::kStuck0:
      v = wrap(e.dsh, static_cast<uint64_t>(v & ~m));
      break;
    case LaneFault::Kind::kStuck1:
      v = wrap(e.dsh, static_cast<uint64_t>(v | m));
      break;
    case LaneFault::Kind::kTransient:
      if (cycle_ == e.cycle) v = wrap(e.dsh, static_cast<uint64_t>(v ^ m));
      break;
    default:
      break;
  }
}

void BatchSimulator::eval_stream_injected() {
  // The stream runs in segments that end at armed slots; each transform
  // rewrites its slot right after the instruction computing it, before any
  // consumer reads it. Inputs and constants have no instruction: they
  // transform first (constants rematerialize from the immediate, then
  // transform, as the interpreter recomputes them every settle).
  const ExecInstr* instrs = plan_->instrs().data();
  const size_t n = plan_->instrs().size();
  size_t done = 0;
  for (const CombEntry& e : comb_entries_) {
    if (e.is_const) cell(e.lane, e.slot) = e.imm;
    const size_t end = static_cast<size_t>(e.after + 1);
    if (end > done) {
      stream_kernel_(instrs + done, end - done, values_.data(), state_.data(),
                     &mem_, active_);
      done = end;
    }
    apply_comb_entry(e);
  }
  stream_kernel_(instrs + done, n - done, values_.data(), state_.data(), &mem_,
                 active_);
}

void BatchSimulator::eval_all() {
  if (comb_entries_.empty())
    stream_kernel_(plan_->instrs().data(), plan_->instrs().size(),
                   values_.data(), state_.data(), &mem_, active_);
  else
    eval_stream_injected();
  evaluated_ = true;
}

void BatchSimulator::latch_all() {
  const size_t L = static_cast<size_t>(active_);
  // Latch registers: reads go to the pre-edge value slots, writes to the
  // separate state array, so ordering within the loop cannot matter.
  for (const RegCommit& rc : plan_->reg_commits()) {
    int64_t* s = state_.data() + static_cast<size_t>(rc.reg) * L;
    const int64_t* next = values_.data() + static_cast<size_t>(rc.next) * L;
    if (rc.enable < 0) {
      for (size_t l = 0; l < L; ++l) s[l] = next[l];
    } else {
      const int64_t* en = values_.data() + static_cast<size_t>(rc.enable) * L;
      for (size_t l = 0; l < L; ++l)
        if (en[l] != 0) s[l] = next[l];
    }
  }
  // Commit memory writes in node order (later writes win on collisions).
  for (const MemCommit& mc : plan_->mem_commits()) {
    LaneVec& mem = mem_[static_cast<size_t>(mc.mem)];
    const size_t depth = mem.size() / L;
    const int64_t* en = values_.data() + static_cast<size_t>(mc.enable) * L;
    const int64_t* addr = values_.data() + static_cast<size_t>(mc.addr) * L;
    const int64_t* data = values_.data() + static_cast<size_t>(mc.data) * L;
    for (size_t l = 0; l < L; ++l) {
      if (en[l] == 0) continue;
      uint64_t w = (static_cast<uint64_t>(addr[l]) & mc.addr_mask) % depth;
      mem[w * L + l] = data[l];
    }
  }
  ++cycle_;
  seu_flips();
  evaluated_ = false;
}

BitVec BatchSimulator::mem_peek(int lane, int mem_id, int addr) const {
  const size_t m = static_cast<size_t>(mem_id);
  return BitVec(plan_->mem_shapes()[m].width,
                mem_[m][at(static_cast<size_t>(addr), lane)]);
}

void BatchSimulator::mem_poke(int lane, int mem_id, int addr,
                              const BitVec& value) {
  const size_t m = static_cast<size_t>(mem_id);
  mem_[m][at(static_cast<size_t>(addr), lane)] =
      canon(plan_->mem_shapes()[m].width, value.to_int64());
}

void BatchSimulator::flip_reg_bit(int lane, NodeId reg, int bit) {
  int64_t& s = state_[at(static_cast<size_t>(reg), lane)];
  s = canon(design_.node(reg).width,
            s ^ static_cast<int64_t>(uint64_t{1} << bit));
  evaluated_ = false;
}

void BatchSimulator::flip_mem_bit(int lane, int mem_id, int addr, int bit) {
  const size_t m = static_cast<size_t>(mem_id);
  int64_t& w = mem_[m][at(static_cast<size_t>(addr), lane)];
  w = canon(plan_->mem_shapes()[m].width,
            w ^ static_cast<int64_t>(uint64_t{1} << bit));
  evaluated_ = false;
}

void BatchSimulator::fire_seu(int lane, const LaneFault& f) {
  if (f.kind == LaneFault::Kind::kSeuReg)
    flip_reg_bit(lane, f.node, f.bit);
  else
    flip_mem_bit(lane, f.mem, f.addr, f.bit);
  seu_fired_[static_cast<size_t>(lane)] = 1;
}

void BatchSimulator::seu_flips() {
  for (int l = 0; l < lanes_; ++l) {
    if (retired_[static_cast<size_t>(l)]) continue;
    const LaneFault& f = faults_[static_cast<size_t>(l)];
    if (!f.seu()) continue;
    if (seu_fired_[static_cast<size_t>(l)] || cycle_ != f.cycle) continue;
    fire_seu(l, f);
  }
}

void BatchSimulator::step_all() {
  // Deadline poll every 256 cycles, exactly like Engine::step(): one clock
  // read per poll keeps multi-million-cycle sweeps interruptible.
  if (deadline_ && (cycle_ & 0xFF) == 0 && deadline_->expired())
    deadline_->check("batched simulation of design '" + design_.name() +
                     '\'');
  if (!evaluated_) eval_all();
  latch_all();
  eval_all();
}

void BatchSimulator::rebuild_comb_index() {
  comb_entries_.clear();
  for (int l = 0; l < lanes_; ++l) {
    if (retired_[static_cast<size_t>(l)]) continue;
    const LaneFault& f = faults_[static_cast<size_t>(l)];
    if (!f.combinational()) continue;
    const netlist::Node& n = design_.node(f.node);
    CombEntry e;
    e.after = instr_of_slot_[static_cast<size_t>(f.node)];
    e.slot = static_cast<int32_t>(f.node);
    e.lane = l;
    e.kind = f.kind;
    e.bit = f.bit;
    e.cycle = f.cycle;
    e.dsh = static_cast<uint8_t>(64 - n.width);
    e.is_const = n.op == Op::Const;
    e.imm = n.imm;
    comb_entries_.push_back(e);
  }
  std::stable_sort(
      comb_entries_.begin(), comb_entries_.end(),
      [](const CombEntry& a, const CombEntry& b) { return a.after < b.after; });
}

void BatchSimulator::arm_lane_fault(int lane, const LaneFault& fault) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  validate_lane_fault(design_, fault);
  LaneFault rebased = fault;
  rebased.cycle += base_[static_cast<size_t>(lane)];  // lane -> sweep clock
  faults_[static_cast<size_t>(lane)] = rebased;
  seu_fired_[static_cast<size_t>(lane)] = 0;
  // Heal any const slot a previously armed transform rewrote. (On a retired
  // lane only the bookkeeping updates; the next reset_all() revives it.)
  restore_consts(lane);
  rebuild_comb_index();
  evaluated_ = false;
}

void BatchSimulator::refill_lane(int lane, const LaneFault& fault) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  HLSHC_CHECK(!retired_[static_cast<size_t>(lane)],
              "refill of retired lane " << lane
                                        << " — retired columns leave the "
                                           "storage; keep a refillable lane "
                                           "live instead");
  // Per-lane Engine::reset(): this lane's column back to the reset state,
  // every other column untouched.
  for (const RegCommit& rc : plan_->reg_commits())
    state_[at(static_cast<size_t>(rc.reg), lane)] = rc.init;
  for (size_t m = 0; m < mem_.size(); ++m) {
    const size_t depth = static_cast<size_t>(plan_->mem_shapes()[m].depth);
    for (size_t w = 0; w < depth; ++w) mem_[m][at(w, lane)] = 0;
  }
  for (NodeId in : design_.inputs()) cell(lane, in) = 0;
  base_[static_cast<size_t>(lane)] = cycle_;
  // Validates, restores consts, rebuilds the comb index, and rebases the
  // fault cycle onto the sweep clock (arm_lane_fault reads base_).
  arm_lane_fault(lane, fault);
  // Engine::reset() ends with the due-SEU check: a lane-cycle-0 SEU lands
  // on the fresh reset state, before the lane's first settle.
  const LaneFault& f = faults_[static_cast<size_t>(lane)];
  if (f.seu() && f.cycle == cycle_) fire_seu(lane, f);
}

void BatchSimulator::retire_lane(int lane) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  HLSHC_CHECK(!retired_[static_cast<size_t>(lane)],
              "lane " << lane << " already retired");
  retired_[static_cast<size_t>(lane)] = 1;
  --live_;
  // Drop the lane's comb transforms (a fully-healthy remainder regains the
  // fast stream path; transforms on a dead column would be harmless but
  // wasted work).
  if (!comb_entries_.empty()) rebuild_comb_index();
  // Deferred compaction: physically dropping columns costs a full pass over
  // storage, so only pay it when at least half the columns are dead. Until
  // then the dead columns keep computing values nobody reads.
  if (live_ > 0 && live_ * 2 <= active_) compact_dead();
}

void BatchSimulator::compact_dead() {
  std::vector<int> newcol(static_cast<size_t>(active_), -1);
  {
    std::vector<uint8_t> keep(static_cast<size_t>(active_), 0);
    for (int l = 0; l < lanes_; ++l)
      if (!retired_[static_cast<size_t>(l)] &&
          phys_[static_cast<size_t>(l)] >= 0)
        keep[static_cast<size_t>(phys_[static_cast<size_t>(l)])] = 1;
    int nc = 0;
    for (int p = 0; p < active_; ++p)
      if (keep[static_cast<size_t>(p)]) newcol[static_cast<size_t>(p)] = nc++;
  }
  compact_columns(values_, plan_->slot_count(), active_, newcol, live_);
  compact_columns(state_, plan_->slot_count(), active_, newcol, live_);
  for (size_t m = 0; m < mem_.size(); ++m)
    compact_columns(mem_[m],
                    static_cast<size_t>(plan_->mem_shapes()[m].depth), active_,
                    newcol, live_);
  for (int l = 0; l < lanes_; ++l) {
    int& p = phys_[static_cast<size_t>(l)];
    p = (!retired_[static_cast<size_t>(l)] && p >= 0)
            ? newcol[static_cast<size_t>(p)]
            : -1;
  }
  active_ = live_;
  stream_kernel_ = select_stream_kernel(active_);
}

}  // namespace hlshc::sim
