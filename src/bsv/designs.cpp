#include "bsv/designs.hpp"

#include <array>
#include <string>
#include <vector>

#include "axis/stream.hpp"
#include "rtl/units.hpp"

namespace hlshc::bsv {

namespace {

using netlist::Design;
using netlist::kInvalidNode;
using netlist::NodeId;

constexpr int kRowStoreWidth = 20;

struct Ports {
  std::array<NodeId, 8> lane;
  NodeId s_valid, s_last, m_ready;
};

Ports make_ports(Design& d) {
  Ports p{};
  for (int c = 0; c < 8; ++c)
    p.lane[static_cast<size_t>(c)] =
        d.input(axis::lane_port("s", c), axis::kInElemWidth);
  p.s_valid = d.input("s_tvalid", 1);
  p.s_last = d.input("s_tlast", 1);
  p.m_ready = d.input("m_tready", 1);
  return p;
}


/// TVALID/TREADY of a BSV interface method must reflect the method's
/// *schedulable* readiness: the guard minus any more-urgent conflicting
/// rule that fires this cycle (BSC folds exactly this into the generated
/// RDY signals). Returns guard & ~OR(blockers' WILL_FIRE).
NodeId method_ready(Design& d, const ScheduleInfo& info,
                    const std::string& rule, NodeId guard) {
  for (const auto& r : info.rules) {
    if (r.name != rule) continue;
    NodeId out = guard;
    for (const std::string& blocker : r.conflicts_with)
      for (const auto& b : info.rules)
        if (b.name == blocker)
          out = d.band(out, d.bnot(b.will_fire, 1), 1);
    return out;
  }
  return guard;
}

NodeId cnt_is(Design& d, NodeId cnt4, int v) {
  return d.eq(cnt4, d.constant(4, v));
}

/// next value of a 0..7 counter held in 4 bits.
NodeId cnt_next(Design& d, NodeId cnt4) {
  return d.mux(cnt_is(d, cnt4, 7), d.constant(4, 0),
               d.add(cnt4, d.constant(4, 1), 4), 4);
}

NodeId sel3(Design& d, NodeId cnt4) { return d.slice(cnt4, 2, 0); }

}  // namespace

netlist::Design build_bsv_initial(const SchedulerOptions& options) {
  RuleModule m("bsv_initial");
  Design& d = m.design();
  Ports p = make_ports(d);

  // Phase token: 0 = IN, 1 = ROWS, 2 = COLS.
  NodeId phase = m.mk_reg(2, 0, "phase");
  NodeId in_cnt = m.mk_reg(4, 0, "in_cnt");
  NodeId out_active = m.mk_reg(1, 0, "out_active");
  NodeId out_cnt = m.mk_reg(4, 0, "out_cnt");

  std::array<std::array<NodeId, 8>, 8> in_regs, row_regs, out_regs;
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) {
      auto tag = "_r" + std::to_string(r) + "c" + std::to_string(c);
      in_regs[static_cast<size_t>(r)][static_cast<size_t>(c)] =
          m.mk_reg(axis::kInElemWidth, 0, "in" + tag);
      row_regs[static_cast<size_t>(r)][static_cast<size_t>(c)] =
          m.mk_reg(kRowStoreWidth, 0, "row" + tag);
      out_regs[static_cast<size_t>(r)][static_cast<size_t>(c)] =
          m.mk_reg(axis::kOutElemWidth, 0, "out" + tag);
    }

  NodeId phase_in = d.eq(phase, d.constant(2, 0));
  NodeId phase_rows = d.eq(phase, d.constant(2, 1));
  NodeId phase_cols = d.eq(phase, d.constant(2, 2));
  NodeId in_last = cnt_is(d, in_cnt, 7);
  NodeId out_last = cnt_is(d, out_cnt, 7);

  // rule emit (most urgent): drain the output buffer row by row.
  m.add_rule("emit", d.band(out_active, p.m_ready, 1),
             {{out_cnt, cnt_next(d, out_cnt), kInvalidNode},
              {out_active, d.bnot(out_last, 1), kInvalidNode}});

  // rule collect: accept one row per cycle while in phase IN.
  {
    std::vector<RuleAction> acts;
    for (int r = 0; r < 8; ++r) {
      NodeId here = cnt_is(d, in_cnt, r);
      for (int c = 0; c < 8; ++c)
        acts.push_back({in_regs[static_cast<size_t>(r)]
                               [static_cast<size_t>(c)],
                        p.lane[static_cast<size_t>(c)], here});
    }
    acts.push_back({in_cnt, cnt_next(d, in_cnt), kInvalidNode});
    acts.push_back({phase,
                    d.mux(in_last, d.constant(2, 1), d.constant(2, 0), 2),
                    kInvalidNode});
    m.add_rule("collect", d.band(p.s_valid, phase_in, 1), std::move(acts));
  }

  // rule do_rows: all eight row passes in one cycle (the C loop, unrolled
  // in space like the reference translation).
  {
    std::vector<RuleAction> acts;
    for (int r = 0; r < 8; ++r) {
      auto out = rtl::build_row_unit(d, in_regs[static_cast<size_t>(r)]);
      for (int c = 0; c < 8; ++c)
        acts.push_back({row_regs[static_cast<size_t>(r)]
                               [static_cast<size_t>(c)],
                        d.slice(out[static_cast<size_t>(c)],
                                kRowStoreWidth - 1, 0),
                        kInvalidNode});
    }
    acts.push_back({phase, d.constant(2, 2), kInvalidNode});
    m.add_rule("do_rows", phase_rows, std::move(acts));
  }

  // rule do_cols: all eight column passes, capture the 9-bit results and
  // hand the phase token back to the input stage.
  {
    std::vector<RuleAction> acts;
    for (int col = 0; col < 8; ++col) {
      std::array<NodeId, 8> column;
      for (int r = 0; r < 8; ++r)
        column[static_cast<size_t>(r)] =
            row_regs[static_cast<size_t>(r)][static_cast<size_t>(col)];
      auto out = rtl::build_col_unit(d, column);
      for (int r = 0; r < 8; ++r)
        acts.push_back({out_regs[static_cast<size_t>(r)]
                               [static_cast<size_t>(col)],
                        out[static_cast<size_t>(r)], kInvalidNode});
    }
    acts.push_back({phase, d.constant(2, 0), kInvalidNode});
    acts.push_back({out_active, d.constant(1, 1), kInvalidNode});
    acts.push_back({out_cnt, d.constant(4, 0), kInvalidNode});
    m.add_rule("do_cols",
               d.band(phase_cols, d.bnot(out_active, 1), 1),
               std::move(acts));
  }

  ScheduleInfo sched = m.compile(options);

  d.output("s_tready", method_ready(d, sched, "collect", phase_in));
  d.output("m_tvalid", method_ready(d, sched, "emit", out_active));
  d.output("m_tlast", out_last);
  for (int c = 0; c < 8; ++c) {
    std::vector<NodeId> rows;
    for (int r = 0; r < 8; ++r)
      rows.push_back(out_regs[static_cast<size_t>(r)]
                             [static_cast<size_t>(c)]);
    d.output(axis::lane_port("m", c),
             rtl::mux_by_index(d, sel3(d, out_cnt), rows));
  }
  return m.take();
}

namespace {

struct OptModule {
  RuleModule m{"bsv_opt"};
  ScheduleInfo schedule;
};

OptModule build_opt_module(const SchedulerOptions& options) {
  OptModule om;
  RuleModule& m = om.m;
  Design& d = m.design();
  Ports p = make_ports(d);

  NodeId in_cnt = m.mk_reg(4, 0, "in_cnt");
  NodeId in_buf = m.mk_reg(1, 0, "in_buf");
  NodeId row_full0 = m.mk_reg(1, 0, "row_full0");
  NodeId row_full1 = m.mk_reg(1, 0, "row_full1");
  NodeId col_cnt = m.mk_reg(4, 0, "col_cnt");
  NodeId col_rptr = m.mk_reg(1, 0, "col_rptr");
  NodeId col_wptr = m.mk_reg(1, 0, "col_wptr");
  NodeId out_full = m.mk_reg(2, 0, "out_full");  // one Reg#(Vector#(2,Bool))
  NodeId out_cnt = m.mk_reg(4, 0, "out_cnt");
  NodeId out_rptr = m.mk_reg(1, 0, "out_rptr");

  std::array<std::array<std::array<NodeId, 8>, 8>, 2> rowbuf, outbuf;
  for (int b = 0; b < 2; ++b)
    for (int r = 0; r < 8; ++r)
      for (int c = 0; c < 8; ++c) {
        auto tag = std::to_string(b) + "_r" + std::to_string(r) + "c" +
                   std::to_string(c);
        rowbuf[static_cast<size_t>(b)][static_cast<size_t>(r)]
              [static_cast<size_t>(c)] =
            m.mk_reg(kRowStoreWidth, 0, "rowbuf" + tag);
        outbuf[static_cast<size_t>(b)][static_cast<size_t>(r)]
              [static_cast<size_t>(c)] =
            m.mk_reg(axis::kOutElemWidth, 0, "outbuf" + tag);
      }

  auto sel2 = [&](NodeId ptr, NodeId v0, NodeId v1) {
    return d.mux(ptr, v1, v0, d.node(v0).width);
  };
  auto bit_of = [&](NodeId vec2, NodeId ptr) {
    return sel2(ptr, d.slice(vec2, 0, 0), d.slice(vec2, 1, 1));
  };
  auto onehot = [&](NodeId ptr) {
    return d.mux(ptr, d.constant(2, 2), d.constant(2, 1), 2);
  };

  NodeId in_last = cnt_is(d, in_cnt, 7);
  NodeId col_at7 = cnt_is(d, col_cnt, 7);
  NodeId out_last = cnt_is(d, out_cnt, 7);
  NodeId out_full_r = bit_of(out_full, out_rptr);
  NodeId out_full_w = bit_of(out_full, col_wptr);
  NodeId row_avail = sel2(col_rptr, row_full0, row_full1);
  NodeId s_ready = d.bnot(sel2(in_buf, row_full0, row_full1), 1);
  NodeId col_guard = d.band(row_avail, d.bnot(out_full_w, 1), 1);

  // rule emit (most urgent).
  m.add_rule(
      "emit", d.band(out_full_r, p.m_ready, 1),
      {{out_cnt, cnt_next(d, out_cnt), kInvalidNode},
       {out_rptr, d.mux(out_last, d.bnot(out_rptr, 1), out_rptr, 1),
        kInvalidNode},
       {out_full, d.band(out_full, d.bnot(onehot(out_rptr), 2), 2),
        out_last}});

  // rule collect: on-the-fly row pass into the ping-pong row buffers.
  NodeId in_fire_guard = d.band(p.s_valid, s_ready, 1);
  {
    auto row_now = rtl::build_row_unit(d, p.lane);
    std::vector<RuleAction> acts;
    for (int b = 0; b < 2; ++b) {
      NodeId bank = d.eq(in_buf, d.constant(1, b));
      for (int r = 0; r < 8; ++r) {
        NodeId en = d.band(cnt_is(d, in_cnt, r), bank, 1);
        for (int c = 0; c < 8; ++c)
          acts.push_back({rowbuf[static_cast<size_t>(b)]
                                [static_cast<size_t>(r)]
                                [static_cast<size_t>(c)],
                          d.slice(row_now[static_cast<size_t>(c)],
                                  kRowStoreWidth - 1, 0),
                          en});
      }
    }
    acts.push_back({in_cnt, cnt_next(d, in_cnt), kInvalidNode});
    acts.push_back({in_buf, d.bnot(in_buf, 1), in_last});
    acts.push_back({row_full0, d.constant(1, 1),
                    d.band(in_last, d.eq(in_buf, d.constant(1, 0)), 1)});
    acts.push_back({row_full1, d.constant(1, 1),
                    d.band(in_last, d.eq(in_buf, d.constant(1, 1)), 1)});
    m.add_rule("collect", in_fire_guard, std::move(acts));
  }

  // Column datapath shared by col_step / col_finish.
  std::array<NodeId, 8> col_in;
  for (int r = 0; r < 8; ++r) {
    std::vector<NodeId> e0, e1;
    for (int c = 0; c < 8; ++c) {
      e0.push_back(rowbuf[0][static_cast<size_t>(r)][static_cast<size_t>(c)]);
      e1.push_back(rowbuf[1][static_cast<size_t>(r)][static_cast<size_t>(c)]);
    }
    col_in[static_cast<size_t>(r)] =
        sel2(col_rptr, rtl::mux_by_index(d, sel3(d, col_cnt), e0),
             rtl::mux_by_index(d, sel3(d, col_cnt), e1));
  }
  auto col_out = rtl::build_col_unit(d, col_in);

  auto outbuf_actions = [&]() {
    std::vector<RuleAction> acts;
    for (int b = 0; b < 2; ++b) {
      NodeId bank = d.eq(col_wptr, d.constant(1, b));
      for (int col = 0; col < 8; ++col) {
        NodeId en = d.band(cnt_is(d, col_cnt, col), bank, 1);
        for (int r = 0; r < 8; ++r)
          acts.push_back({outbuf[static_cast<size_t>(b)]
                                [static_cast<size_t>(r)]
                                [static_cast<size_t>(col)],
                          col_out[static_cast<size_t>(r)], en});
      }
    }
    return acts;
  };

  // rule col_step: columns 0..6.
  {
    std::vector<RuleAction> acts = outbuf_actions();
    acts.push_back({col_cnt, cnt_next(d, col_cnt), kInvalidNode});
    m.add_rule("col_step", d.band(col_guard, d.bnot(col_at7, 1), 1),
               std::move(acts));
  }

  // rule col_finish: column 7 — publishes the finished bank. It writes the
  // out_full vector, as emit does, so the scheduler serializes them: the
  // once-per-matrix bubble of the paper.
  {
    std::vector<RuleAction> acts = outbuf_actions();
    acts.push_back({col_cnt, d.constant(4, 0), kInvalidNode});
    acts.push_back({col_rptr, d.bnot(col_rptr, 1), kInvalidNode});
    acts.push_back({col_wptr, d.bnot(col_wptr, 1), kInvalidNode});
    acts.push_back({row_full0, d.constant(1, 0),
                    d.eq(col_rptr, d.constant(1, 0))});
    acts.push_back({row_full1, d.constant(1, 0),
                    d.eq(col_rptr, d.constant(1, 1))});
    acts.push_back({out_full, d.bor(out_full, onehot(col_wptr), 2),
                    kInvalidNode});
    m.add_rule("col_finish", d.band(col_guard, col_at7, 1), std::move(acts));
  }

  // collect touches row_full{0,1} to set, col_finish to clear — provably
  // disjoint banks (a bank cannot be both full and empty), asserted the
  // BSV way:
  m.mark_conflict_free("collect", "col_finish");
  // col_step and col_finish share outbuf/col_cnt but have mutually
  // exclusive guards (col_cnt != 7 vs == 7):
  m.mark_conflict_free("col_step", "col_finish");

  om.schedule = m.compile(options);

  d.output("s_tready", method_ready(d, om.schedule, "collect", s_ready));
  d.output("m_tvalid", method_ready(d, om.schedule, "emit", out_full_r));
  d.output("m_tlast", out_last);
  for (int c = 0; c < 8; ++c) {
    std::vector<NodeId> r0, r1;
    for (int r = 0; r < 8; ++r) {
      r0.push_back(outbuf[0][static_cast<size_t>(r)][static_cast<size_t>(c)]);
      r1.push_back(outbuf[1][static_cast<size_t>(r)][static_cast<size_t>(c)]);
    }
    d.output(axis::lane_port("m", c),
             sel2(out_rptr, rtl::mux_by_index(d, sel3(d, out_cnt), r0),
                  rtl::mux_by_index(d, sel3(d, out_cnt), r1)));
  }
  return om;
}

}  // namespace

netlist::Design build_bsv_opt(const SchedulerOptions& options) {
  OptModule om = build_opt_module(options);
  return om.m.take();
}

// kept: test-observation hook: bsv_test reads the rule conflicts with it.
ScheduleInfo schedule_of_bsv_opt(const SchedulerOptions& options) {
  return build_opt_module(options).schedule;
}

}  // namespace hlshc::bsv
