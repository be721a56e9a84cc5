#include "synth/schedule.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "base/check.hpp"

namespace hlshc::synth {

using netlist::Design;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

const char* schedule_objective_name(ScheduleObjective objective) {
  switch (objective) {
    case ScheduleObjective::kDelayBalance:
      return "balance";
    case ScheduleObjective::kRegisterMin:
      return "regmin";
  }
  return "balance";
}

ScheduleObjective parse_objective(std::string_view text,
                                  std::string_view what) {
  if (text == "balance") return ScheduleObjective::kDelayBalance;
  if (text == "regmin") return ScheduleObjective::kRegisterMin;
  throw Error(std::string(what) + " must be 'balance' or 'regmin', got '" +
              std::string(text) + '\'');
}

ScheduleResult schedule_pipeline(const Design& function,
                                 const ScheduleOptions& options) {
  for (size_t i = 0; i < function.node_count(); ++i) {
    Op op = function.node(static_cast<NodeId>(i)).op;
    HLSHC_CHECK(op != Op::Reg && op != Op::MemRead && op != Op::MemWrite,
                "schedule_pipeline requires a pure dataflow function");
  }
  const int stages = options.stages;
  HLSHC_CHECK(stages >= 0 && stages <= kMaxScheduleStages,
              "pipeline stages must be in [0, " << kMaxScheduleStages
                                                << "], got " << stages);

  ScheduleResult res{Design(function.name()), 0, stages, 0, 0};
  if (stages <= 0) {
    res.design = function;
    return res;
  }

  // Arrival times with the synthesis delay model (no I/O pads: the function
  // is an internal kernel).
  Mapper mapper(function, options.synth);
  const auto order = function.topo_order();
  const size_t n = function.node_count();
  std::vector<double> arrival(n, 0.0);
  double crit = 0.0;
  for (NodeId id : order) {
    const Node& nd = function.node(id);
    double in = 0.0;
    for (NodeId o : nd.operands)
      in = std::max(in, arrival[static_cast<size_t>(o)]);
    arrival[static_cast<size_t>(id)] = in + mapper.cost(id).delay_ns;
    crit = std::max(crit, arrival[static_cast<size_t>(id)]);
  }
  if (crit <= 0.0) crit = 1.0;

  // Greedy balanced stage assignment, monotone over operands.
  std::vector<int> stage(n, 0);
  for (NodeId id : order) {
    const Node& nd = function.node(id);
    int s = static_cast<int>(arrival[static_cast<size_t>(id)] *
                             static_cast<double>(stages) / (crit * 1.0001));
    s = std::min(s, stages - 1);
    for (NodeId o : nd.operands)
      s = std::max(s, stage[static_cast<size_t>(o)]);
    if (nd.op == Op::Input) s = 0;
    stage[static_cast<size_t>(id)] = s;
  }

  if (options.objective == ScheduleObjective::kRegisterMin) {
    // Sink nodes toward their consumers when their operands are cheaper to
    // register than their output: moving node i from stage s to s' trades
    // (s'-s) output registers of width(i) for (s'-s) operand registers of
    // sum(width(o)) — profitable exactly when width(i) > sum(width(o)).
    // Constant operands cost nothing (never pipelined), and the pipe cache
    // shares operand registers between consumers, so this is a lower bound
    // on the real saving. Reverse topo order lets sunk consumers pull their
    // producers along; the schedule stays monotone because a node only ever
    // moves up to the minimum of its (already final) consumer stages.
    std::vector<int> sink_to(n, stages);  // min consumer stage
    for (NodeId id : order) {
      const Node& nd = function.node(id);
      // A value driving an Output is registered at the final boundary
      // regardless, so an Output consumer permits the last stage.
      const int consumer_stage = nd.op == Op::Output
                                     ? stages - 1
                                     : stage[static_cast<size_t>(id)];
      for (NodeId o : nd.operands)
        sink_to[static_cast<size_t>(o)] =
            std::min(sink_to[static_cast<size_t>(o)], consumer_stage);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId id = *it;
      const Node& nd = function.node(id);
      if (nd.op == Op::Input || nd.op == Op::Const || nd.op == Op::Output)
        continue;
      if (sink_to[static_cast<size_t>(id)] >= stages) continue;  // dead node
      int operand_bits = 0;
      for (NodeId o : nd.operands)
        if (function.node(o).op != Op::Const)
          operand_bits += function.node(o).width;
      if (nd.width <= operand_bits) continue;
      if (sink_to[static_cast<size_t>(id)] > stage[static_cast<size_t>(id)]) {
        stage[static_cast<size_t>(id)] = sink_to[static_cast<size_t>(id)];
        // Re-propagate the move to this node's operands' slack.
        for (NodeId o : nd.operands)
          sink_to[static_cast<size_t>(o)] =
              std::min(sink_to[static_cast<size_t>(o)],
                       stage[static_cast<size_t>(id)]);
      }
    }
  }

  // Merge empty stages: remap used stage indices to a dense range.
  std::vector<bool> used(static_cast<size_t>(stages), false);
  for (NodeId id : order)
    if (function.node(id).op != Op::Input && function.node(id).op != Op::Const)
      used[static_cast<size_t>(stage[static_cast<size_t>(id)])] = true;
  std::vector<int> remap(static_cast<size_t>(stages), 0);
  int dense = 0;
  for (int s = 0; s < stages; ++s) {
    remap[static_cast<size_t>(s)] = dense;
    if (used[static_cast<size_t>(s)]) ++dense;
  }
  if (dense == 0) dense = 1;
  const int depth = dense;  // surviving stages == register layers
  res.merged_stages = stages - depth;
  res.latency = depth;

  for (NodeId id : order)
    stage[static_cast<size_t>(id)] =
        std::min(remap[static_cast<size_t>(stage[static_cast<size_t>(id)])],
                 depth - 1);

  // Rebuild with pipeline registers. pipe[(node, layer)] = value of `node`
  // delayed to just after boundary `layer` (boundary L sits after stage L).
  Design& out = res.design;
  std::vector<NodeId> built(n, netlist::kInvalidNode);
  std::map<std::pair<NodeId, int>, NodeId> pipe;

  auto delayed = [&](NodeId src, int to_layer) -> NodeId {
    // Value of src (produced in stage[src]) as seen after `to_layer`
    // register layers (to_layer >= stage[src] means that many boundaries
    // crossed; to_layer == stage[src] means raw combinational value).
    // Constants exist in every stage — never pipelined.
    if (function.node(src).op == Op::Const)
      return built[static_cast<size_t>(src)];
    NodeId cur = built[static_cast<size_t>(src)];
    int have = stage[static_cast<size_t>(src)];
    for (int l = have; l < to_layer; ++l) {
      auto key = std::make_pair(src, l);
      auto it = pipe.find(key);
      if (it != pipe.end()) {
        cur = it->second;
        continue;
      }
      const std::string name =
          "p" + std::to_string(l) + "_n" + std::to_string(src);
      // Copy the fields we need: creating nodes below may reallocate the
      // node storage behind out.node() references.
      const Op cur_op = out.node(cur).op;
      const int cur_width = out.node(cur).width;
      NodeId r;
      if (options.retime_boundaries &&
          (cur_op == Op::SExt || cur_op == Op::ZExt) &&
          out.node(out.node(cur).operands[0]).width < cur_width) {
        // Register the narrow source of the extension and re-extend after
        // the boundary: delay commutes with sign/zero extension, and the
        // register init of 0 extends to 0 either way, so behaviour is
        // identical while the boundary flops shrink to the informative
        // bits. Iterates naturally across layers (the re-extension is
        // itself an extension of a narrow register).
        const NodeId narrow_src = out.node(cur).operands[0];
        const int narrow_width = out.node(narrow_src).width;
        NodeId rr = out.reg(narrow_width, 0, name);
        out.set_reg_next(rr, narrow_src);
        res.pipeline_regs += narrow_width;
        r = cur_op == Op::SExt ? out.sext(rr, cur_width)
                               : out.zext(rr, cur_width);
      } else {
        r = out.reg(cur_width, 0, name);
        out.set_reg_next(r, cur);
        res.pipeline_regs += cur_width;
      }
      pipe[key] = r;
      cur = r;
    }
    return cur;
  };

  for (NodeId id : order) {
    const Node& nd = function.node(id);
    Node copy = nd;
    copy.operands.clear();
    int my_stage = stage[static_cast<size_t>(id)];
    for (NodeId o : nd.operands) copy.operands.push_back(delayed(o, my_stage));
    NodeId nid;
    if (nd.op == Op::Input) {
      nid = out.input(nd.name, nd.width);
    } else if (nd.op == Op::Output) {
      // Outputs are registered at the final boundary: delay the driven
      // value through every remaining layer.
      NodeId v = delayed(nd.operands[0], depth);
      nid = out.output(nd.name, v);
    } else {
      nid = out.constant(nd.width, 0);
      out.mutable_node(nid) = copy;
    }
    built[static_cast<size_t>(id)] = nid;
  }
  out.validate();
  return res;
}

}  // namespace hlshc::synth
