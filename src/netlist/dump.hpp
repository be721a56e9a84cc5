// Human-readable netlist dump: a flat text listing, one node per line,
// stable across runs: the compile cache's content key and the service's
// `netlist` result.
#pragma once

#include <string>

#include "netlist/ir.hpp"

namespace hlshc::netlist {

/// One line per node: "%id = op<width> (%a, %b) [attrs]".
std::string dump_text(const Design& d);

}  // namespace hlshc::netlist
