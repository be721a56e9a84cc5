// The tool registry: one driver per language/tool flow of Table I.
//
// A Flow knows how to (a) build and evaluate its paper-defined "initial"
// and "optimized" designs through the common measurement procedure,
// (b) account its lines of code from the shipped sources under data/
// (L = L_FU + L_AXI + L_Conf, Section III.C) and the ΔL diff between the
// initial and optimized sources, and (c) enumerate its design-space sweep
// for Fig. 1 (3 Verilog circuits, 2 Chisel, 26 BSV, 19 XLS, 2 MaxJ,
// 42 Bambu, 3 Vivado HLS).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/report.hpp"
#include "tools/compile.hpp"

namespace hlshc::tools {

/// A Table I row.
struct ToolInfo {
  std::string language;
  std::string paradigm;
  std::string tool;
  std::string type;      ///< "LS/PR", "HC", "HLS"
  std::string openness;  ///< "Commercial", "Open-source"
};

struct LocBreakdown {
  int initial = 0;
  int optimized = 0;
  int delta = 0;  ///< ΔL = ΔL+ + ΔL- between the two source sets
};

struct FlowResult {
  ToolInfo info;
  core::DesignEvaluation initial;
  core::DesignEvaluation optimized;
  LocBreakdown loc;
};

/// One independently evaluable design point of a flow's Fig. 1 sweep: a
/// (family, config) label plus a closure that builds the circuit and runs
/// the full measurement procedure. Tasks share nothing — each builds its
/// own netlist — so the DSE can run them in any order or concurrently
/// (par::SweepRunner) and still produce the exact serial point list.
struct SweepTask {
  std::string family;
  std::string config;
  std::function<core::ScatterPoint()> run;
};

class Flow {
 public:
  virtual ~Flow() = default;
  virtual std::string family() const = 0;  ///< scatter series name
  virtual ToolInfo info() const = 0;
  virtual FlowResult evaluate() const = 0;
  /// The flow's sweep as independent tasks, in the canonical point order.
  virtual std::vector<SweepTask> sweep_tasks() const = 0;
  /// Serial convenience: run every sweep task in declaration order.
  std::vector<core::ScatterPoint> sweep() const;
};

/// All seven flows, in the paper's column order. Every design a flow
/// builds or sweeps goes through tools::compile with `compile` — narrowing
/// on/off, strength reduction, verify — so Table II and the DSE can be
/// regenerated under any pipeline configuration (compile.narrow = false is
/// the pre-narrowing bitwise oracle).
std::vector<std::unique_ptr<Flow>> make_flows(
    const CompileOptions& compile = {});

/// One assembled Table II column (both configurations + derived metrics).
struct Table2Column {
  FlowResult flow;
  double automation_initial = 0, automation_opt = 0;  ///< α, percent
  double quality_initial = 0, quality_opt = 0;        ///< Q = P/A
  double controllability = 0;                         ///< C_Q, percent
  double flexibility = 0;                             ///< F_Q
};

struct Table2 {
  std::vector<Table2Column> columns;
  double verilog_best_quality = 0;
};

/// Evaluates every flow and derives the metrics (slow: full simulation and
/// synthesis of 14 designs). `jobs` != 1 evaluates the seven flows
/// concurrently over a par::SweepRunner (0 = all cores); the derived
/// metrics and column order are identical at any worker count.
Table2 build_table2(int jobs = 1, const CompileOptions& compile = {});

/// The full design-space exploration: every flow's sweep with narrowing on,
/// the same grid with narrowing off (config suffix "+wide"), and every
/// non-IDCT workload-registry cell — 200+ configurations swept over one
/// par::SweepRunner pool. `jobs` != 1 evaluates concurrently (0 = all
/// cores); the point list is identical at any worker count. hlshc_paper
/// fig1 reports the scatter and the per-workload A/P/Q fronts; perfbench
/// pins every point in perfbench/expected/dse.tsv.
std::vector<core::ScatterPoint> full_dse(int jobs = 1);

/// Just the classic narrowing-on flow sweeps (the paper's Fig. 1 set plus
/// the new scheduler points), without the "+wide" and workload dimensions.
std::vector<core::ScatterPoint> flow_dse(int jobs = 1,
                                         const CompileOptions& compile = {});

/// Renderers used by the benches.
std::string render_table1();
std::string render_table2(const Table2& table);

/// Machine-readable Table II (one row per flow/configuration).
std::string table2_csv(const Table2& table);

}  // namespace hlshc::tools
