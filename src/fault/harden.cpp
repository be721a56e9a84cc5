#include "fault/harden.hpp"

#include <map>
#include <string>

#include "netlist/instantiate.hpp"
#include "netlist/passes.hpp"

namespace hlshc::fault {

using netlist::Design;
using netlist::kInvalidNode;
using netlist::Node;
using netlist::NodeId;

Design tmr(const Design& kernel, const TmrOptions& options) {
  HLSHC_CHECK(!kernel.outputs().empty(),
              "tmr: design '" << kernel.name() << "' has no outputs to vote");
  Design out(kernel.name() + "_tmr");
  std::map<std::string, NodeId> ins;
  for (NodeId i : kernel.inputs()) {
    const Node& n = kernel.node(i);
    ins[n.name] = out.input(n.name, n.width);
  }
  auto c0 = netlist::instantiate(out, kernel, ins);
  auto c1 = netlist::instantiate(out, kernel, ins);
  auto c2 = netlist::instantiate(out, kernel, ins);

  NodeId mismatch = kInvalidNode;
  for (NodeId o : kernel.outputs()) {
    const std::string& port = kernel.node(o).name;
    NodeId a = c0.at(port), b = c1.at(port), c = c2.at(port);
    out.output(port, netlist::majority3(out, a, b, c));
    if (options.with_detector) {
      NodeId mm = out.bor(out.ne(a, b), out.ne(a, c), 1);
      mismatch = mismatch == kInvalidNode ? mm : out.bor(mismatch, mm, 1);
    }
  }
  if (options.with_detector) {
    NodeId err = out.reg(1, 0, "tmr_err_r");
    out.set_reg_next(err, out.bor(err, mismatch, 1));
    out.output("tmr_err", err);
  }
  return out;
}

}  // namespace hlshc::fault
