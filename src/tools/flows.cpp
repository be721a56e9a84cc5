#include "tools/flows.hpp"

#include <sstream>

#include "base/strings.hpp"
#include "tools/compile.hpp"
#include "bsv/designs.hpp"
#include "chisel/designs.hpp"
#include "core/diff.hpp"
#include "core/loc.hpp"
#include "core/metrics.hpp"
#include "framework/compose.hpp"
#include "hls/tool.hpp"
#include "maxj/kernels.hpp"
#include "maxj/system.hpp"
#include "par/sweep.hpp"
#include "rtl/designs.hpp"
#include "synth/schedule.hpp"
#include "workload/workload.hpp"
#include "xls/designs.hpp"

namespace hlshc::tools {

namespace {

using core::DesignEvaluation;
using core::ScatterPoint;

/// Canonical named designs come from the workload registry — the flows no
/// longer hardwire the IDCT frontends. Configuration sweeps (BSV scheduler
/// grid, XLS stage sweep, the 42 Bambu configs) still call the frontends
/// directly with their swept options.
netlist::Design registry_build(const std::string& builder) {
  return workload::Registry::instance().get("idct").builder(builder).build();
}

int code_loc(const std::string& rel) {
  return core::count_data_file(rel, core::language_of(rel)).code;
}

ScatterPoint point(const std::string& family, const std::string& config,
                   const DesignEvaluation& ev,
                   const std::string& workload = "idct") {
  return ScatterPoint{family, config, ev.throughput_mops, ev.area,
                      static_cast<long>(ev.pipeline.nodes_delta()), workload};
}

/// Wraps a deferred evaluation into a SweepTask. `eval` must be
/// self-contained (capture everything it needs by value) so tasks stay
/// independent under parallel execution.
SweepTask task(std::string family, std::string config,
               std::function<DesignEvaluation()> eval) {
  SweepTask t;
  t.family = family;
  t.config = config;
  t.run = [family = std::move(family), config = std::move(config),
           eval = std::move(eval)]() { return point(family, config, eval()); };
  return t;
}

/// A sweep point that pipelines a flow's pure matrix kernel through the
/// flow-neutral scheduler and wraps it in the framework's AXI adapter —
/// how the RTL and Chisel flows (which have no tool-native pipeliner)
/// join the stage-count axis of the DSE.
SweepTask pipelined_kernel_task(const std::string& family,
                                netlist::Design (*kernel)(), int stages,
                                const CompileOptions& copts) {
  return task(family, "pipe=" + std::to_string(stages),
              [family, kernel, stages, copts] {
                synth::ScheduleOptions so;
                so.stages = stages;
                synth::ScheduleResult r = synth::schedule_pipeline(kernel(), so);
                netlist::Design wrapped = framework::wrap_matrix_kernel(
                    framework::MatrixKernel{r.design, r.latency},
                    family + "_pipe" + std::to_string(stages));
                return evaluate_design(wrapped, copts);
              });
}

// ---- Verilog -----------------------------------------------------------------

class VerilogFlow : public Flow {
 public:
  explicit VerilogFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "verilog"; }
  ToolInfo info() const override {
    return {"Verilog", "Classical RTL", "Vivado", "LS/PR", "Commercial"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    r.initial = evaluate_design(registry_build("verilog_initial"), copts_);
    r.optimized = evaluate_design(registry_build("verilog_opt2"), copts_);
    r.loc.initial = code_loc("verilog/idct_initial.v");
    r.loc.optimized = code_loc("verilog/idct_opt.v");
    r.loc.delta = core::diff_data_files("verilog/idct_initial.v",
                                        "verilog/idct_opt.v")
                      .delta();
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    std::vector<SweepTask> out;
    CompileOptions copts = copts_;
    out.push_back(task(family(), "initial", [copts] {
      return evaluate_design(registry_build("verilog_initial"), copts);
    }));
    out.push_back(task(family(), "opt1-1row8col", [copts] {
      return evaluate_design(registry_build("verilog_opt1"), copts);
    }));
    out.push_back(task(family(), "opt2-pipelined", [copts] {
      return evaluate_design(registry_build("verilog_opt2"), copts);
    }));
    // Scheduler-pipelined kernel points: the hand-written rows/columns at
    // declared widths, staged by synth::schedule_pipeline.
    for (int stages : {2, 4, 8})
      out.push_back(pipelined_kernel_task(family(), rtl::build_matrix_kernel,
                                          stages, copts));
    return out;
  }

 private:
  CompileOptions copts_;
};

// ---- Chisel -------------------------------------------------------------------

class ChiselFlow : public Flow {
 public:
  explicit ChiselFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "chisel"; }
  ToolInfo info() const override {
    return {"Chisel", "Functional/RTL", "Chisel", "HC", "Open-source"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    r.initial = evaluate_design(registry_build("chisel_initial"), copts_);
    r.optimized = evaluate_design(registry_build("chisel_opt"), copts_);
    int shared = code_loc("chisel/Butterfly.scala");
    r.loc.initial = shared + code_loc("chisel/IdctInitial.scala");
    r.loc.optimized = shared + code_loc("chisel/IdctOpt.scala");
    r.loc.delta = core::diff_data_files("chisel/IdctInitial.scala",
                                        "chisel/IdctOpt.scala")
                      .delta();
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    std::vector<SweepTask> out;
    CompileOptions copts = copts_;
    out.push_back(task(family(), "initial", [copts] {
      return evaluate_design(registry_build("chisel_initial"), copts);
    }));
    out.push_back(task(family(), "opt", [copts] {
      return evaluate_design(registry_build("chisel_opt"), copts);
    }));
    // Scheduler-pipelined kernel points at inferred widths.
    for (int stages : {2, 4, 8})
      out.push_back(pipelined_kernel_task(
          family(), chisel::build_matrix_kernel, stages, copts));
    return out;
  }

 private:
  CompileOptions copts_;
};

// ---- BSV ----------------------------------------------------------------------

std::vector<bsv::SchedulerOptions> bsv_configs() {
  std::vector<bsv::SchedulerOptions> out;
  // 13 scheduler/attribute combinations x 2 designs = the paper's 26.
  out.push_back({});  // the default comes first
  for (bsv::UrgencyOrder u :
       {bsv::UrgencyOrder::kDeclaration, bsv::UrgencyOrder::kReversed,
        bsv::UrgencyOrder::kConflictSorted}) {
    for (bsv::MuxStyle s :
         {bsv::MuxStyle::kPriorityChain, bsv::MuxStyle::kOneHotAndOr}) {
      for (bool ac : {false, true}) {
        bsv::SchedulerOptions o;
        o.urgency = u;
        o.mux_style = s;
        o.aggressive_conditions = ac;
        out.push_back(o);
      }
    }
  }
  return out;  // 1 + 12 = 13
}

std::string bsv_label(const bsv::SchedulerOptions& o) {
  std::string s;
  switch (o.urgency) {
    case bsv::UrgencyOrder::kDeclaration: s = "decl"; break;
    case bsv::UrgencyOrder::kReversed: s = "rev"; break;
    case bsv::UrgencyOrder::kConflictSorted: s = "csort"; break;
  }
  s += o.mux_style == bsv::MuxStyle::kOneHotAndOr ? "+onehot" : "+prio";
  if (o.aggressive_conditions) s += "+ac";
  return s;
}

class BsvFlow : public Flow {
 public:
  explicit BsvFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "bsv"; }
  ToolInfo info() const override {
    return {"BSV", "Rule-based/RTL", "BSC", "HC", "Open-source"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    r.initial = evaluate_design(registry_build("bsv_initial"), copts_);
    r.optimized = evaluate_design(registry_build("bsv_opt"), copts_);
    int shared = code_loc("bsv/IdctFuncs.bsv");
    r.loc.initial = shared + code_loc("bsv/IdctInitial.bsv");
    r.loc.optimized = shared + code_loc("bsv/IdctOpt.bsv");
    r.loc.delta = core::diff_data_files("bsv/IdctInitial.bsv",
                                        "bsv/IdctOpt.bsv")
                      .delta();
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    std::vector<SweepTask> out;
    CompileOptions copts = copts_;
    for (const auto& cfg : bsv_configs()) {
      out.push_back(task(family(), "initial:" + bsv_label(cfg), [cfg, copts] {
        return evaluate_design(bsv::build_bsv_initial(cfg), copts);
      }));
      out.push_back(task(family(), "opt:" + bsv_label(cfg), [cfg, copts] {
        return evaluate_design(bsv::build_bsv_opt(cfg), copts);
      }));
    }
    return out;  // 26 circuits
  }

 private:
  CompileOptions copts_;
};

// ---- DSLX / XLS -----------------------------------------------------------------

class XlsFlow : public Flow {
 public:
  explicit XlsFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "xls"; }
  ToolInfo info() const override {
    return {"DSLX", "Functional", "XLS", "HLS", "Open-source"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    r.initial = evaluate_design(registry_build("xls_comb"), copts_);
    r.optimized = evaluate_design(registry_build("xls_p8"), copts_);
    // L = kernel source + hand-crafted adapter (+ codegen options for the
    // optimized configuration).
    int base = code_loc("dslx/idct.x") + code_loc("dslx/axis_adapter.v");
    int conf = code_loc("dslx/xls_opt.cfg");
    r.loc.initial = base;
    r.loc.optimized = base + conf;
    r.loc.delta = conf;  // the paper: only the stage count changes (ΔL = 3)
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    std::vector<SweepTask> out;
    CompileOptions copts = copts_;
    out.push_back(task(family(), "comb", [copts] {
      return evaluate_design(xls::build_xls_design({0}).design, copts);
    }));
    // The paper's sweep: 1..18 requested stages under the default
    // delay-balance objective (19 configurations with "comb").
    for (int stages = 1; stages <= kPaperMaxStages; ++stages)
      out.push_back(
          task(family(), "stages=" + std::to_string(stages), [stages, copts] {
            return evaluate_design(xls::build_xls_design({stages}).design,
                                   copts);
          }));
    // Scheduler-objective points beyond the paper: register-minimizing
    // stage assignment and boundary retiming across extensions.
    for (int stages = 2; stages <= kPaperMaxStages; stages += 2) {
      out.push_back(task(family(), "stages=" + std::to_string(stages) +
                                       "+regmin",
                         [stages, copts] {
                           xls::XlsOptions o;
                           o.pipeline_stages = stages;
                           o.objective = synth::ScheduleObjective::kRegisterMin;
                           return evaluate_design(
                               xls::build_xls_design(o).design, copts);
                         }));
      out.push_back(task(family(), "stages=" + std::to_string(stages) + "+rt",
                         [stages, copts] {
                           xls::XlsOptions o;
                           o.pipeline_stages = stages;
                           o.retime_boundaries = true;
                           return evaluate_design(
                               xls::build_xls_design(o).design, copts);
                         }));
    }
    return out;  // 19 + 18 circuits
  }

 private:
  /// The paper sweeps comb + 1..18 stages; scheduler validation itself
  /// accepts up to synth::kMaxScheduleStages.
  static constexpr int kPaperMaxStages = 18;

  CompileOptions copts_;
};

// ---- MaxJ -----------------------------------------------------------------------

class MaxjFlow : public Flow {
 public:
  explicit MaxjFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "maxj"; }
  ToolInfo info() const override {
    return {"MaxJ", "Dataflow", "MaxCompiler", "HLS", "Commercial"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    maxj::Kernel init = maxj::build_matrix_kernel();
    maxj::Kernel opt = maxj::build_row_kernel();
    netlist::PassStats init_stats, opt_stats;
    r.initial = core::from_maxj(
        "maxj_matrix", init,
        maxj::evaluate_system(init, compile_synth_normalized(
                                        init.design, copts_, {},
                                        &init_stats)));
    r.initial.pipeline = init_stats;
    r.optimized = core::from_maxj(
        "maxj_row", opt,
        maxj::evaluate_system(
            opt,
            compile_synth_normalized(opt.design, copts_, {}, &opt_stats)));
    r.optimized.pipeline = opt_stats;
    // MaxCompiler generates the PCIe interface: L_AXI = 0; the manager is
    // part of the description.
    int shared =
        code_loc("maxj/IdctMath.maxj") + code_loc("maxj/IdctManager.maxj");
    r.loc.initial = shared + code_loc("maxj/IdctMatrixKernel.maxj");
    r.loc.optimized = shared + code_loc("maxj/IdctRowKernel.maxj");
    r.loc.delta = core::diff_data_files("maxj/IdctMatrixKernel.maxj",
                                        "maxj/IdctRowKernel.maxj")
                      .delta();
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    std::vector<SweepTask> out;
    CompileOptions copts = copts_;
    out.push_back(task(family(), "matrix-per-tick", [copts] {
      maxj::Kernel k = maxj::build_matrix_kernel();
      netlist::PassStats ps;
      DesignEvaluation ev = core::from_maxj(
          "maxj_matrix", k,
          maxj::evaluate_system(
              k, compile_synth_normalized(k.design, copts, {}, &ps)));
      ev.pipeline = ps;
      return ev;
    }));
    out.push_back(task(family(), "row-per-tick", [copts] {
      maxj::Kernel k = maxj::build_row_kernel();
      netlist::PassStats ps;
      DesignEvaluation ev = core::from_maxj(
          "maxj_row", k,
          maxj::evaluate_system(
              k, compile_synth_normalized(k.design, copts, {}, &ps)));
      ev.pipeline = ps;
      return ev;
    }));
    return out;
  }

 private:
  CompileOptions copts_;
};

// ---- C / Bambu --------------------------------------------------------------------

class BambuFlow : public Flow {
 public:
  explicit BambuFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "bambu"; }
  ToolInfo info() const override {
    return {"C", "Imperative", "Bambu", "HLS", "Open-source"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    r.initial = evaluate_design(registry_build("bambu"), copts_);
    r.optimized = evaluate_design(registry_build("bambu_perf"), copts_);
    int base = code_loc("c/idct.c") + code_loc("c/axis_adapter.v");
    int conf = code_loc("c/bambu_opt.cfg");
    r.loc.initial = base;
    r.loc.optimized = base + conf;
    r.loc.delta = conf;  // only options change between the two configs
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    std::vector<SweepTask> out;
    const std::string src = hls::idct_source();
    core::EvaluateOptions eo;
    eo.matrices = 3;  // hundreds of cycles per matrix: keep the sweep quick
    CompileOptions copts = copts_;
    for (const hls::BambuOptions& o : hls::bambu_sweep())
      out.push_back(task(family(), o.label(), [src, o, eo, copts] {
        return evaluate_design(hls::compile_bambu(src, o).design, copts, eo);
      }));
    return out;  // 42 circuits
  }

 private:
  CompileOptions copts_;
};

// ---- C / Vivado HLS ----------------------------------------------------------------

class VhlsFlow : public Flow {
 public:
  explicit VhlsFlow(CompileOptions copts = {}) : copts_(std::move(copts)) {}
  std::string family() const override { return "vhls"; }
  ToolInfo info() const override {
    return {"C", "Imperative", "Vivado HLS", "HLS", "Commercial"};
  }
  FlowResult evaluate() const override {
    FlowResult r;
    r.info = info();
    r.initial = evaluate_design(registry_build("vhls_pushbutton"), copts_,
                                slow_options());
    r.optimized = evaluate_design(registry_build("vhls_pragmas"), copts_);
    r.loc.initial = code_loc("c/idct_vhls.c");
    r.loc.optimized = code_loc("c/idct_vhls_opt.c");
    r.loc.delta =
        core::diff_data_files("c/idct_vhls.c", "c/idct_vhls_opt.c").delta();
    return r;
  }
  std::vector<SweepTask> sweep_tasks() const override {
    const std::string src = hls::idct_source();
    std::vector<SweepTask> out;
    CompileOptions copts = copts_;
    out.push_back(task(family(), "push-button", [src, copts] {
      return evaluate_design(hls::compile_vhls(src, {}).design, copts,
                             slow_options());
    }));
    for (int stages : {1, 2}) {
      hls::VhlsOptions o;
      o.pragmas = true;
      o.pipeline_stages = stages;
      out.push_back(task(family(), "pragmas-s" + std::to_string(stages),
                         [src, o, copts] {
                           return evaluate_design(
                               hls::compile_vhls(src, o).design, copts);
                         }));
    }
    return out;  // 3 circuits
  }

 private:
  static core::EvaluateOptions slow_options() {
    core::EvaluateOptions o;
    o.matrices = 3;  // the push-button design takes ~700 cycles per matrix
    return o;
  }

  CompileOptions copts_;
};

}  // namespace

std::vector<std::unique_ptr<Flow>> make_flows(const CompileOptions& compile) {
  std::vector<std::unique_ptr<Flow>> out;
  out.push_back(std::make_unique<VerilogFlow>(compile));
  out.push_back(std::make_unique<ChiselFlow>(compile));
  out.push_back(std::make_unique<BsvFlow>(compile));
  out.push_back(std::make_unique<XlsFlow>(compile));
  out.push_back(std::make_unique<MaxjFlow>(compile));
  out.push_back(std::make_unique<BambuFlow>(compile));
  out.push_back(std::make_unique<VhlsFlow>(compile));
  return out;
}

Table2 build_table2(int jobs, const CompileOptions& compile) {
  Table2 table;
  // Each flow builds and measures its own designs from scratch — no shared
  // mutable state — so the seven evaluations parallelize trivially. Results
  // land in flow order regardless of completion order.
  auto flows = make_flows(compile);
  par::SweepRunner runner(jobs);
  std::vector<FlowResult> results = runner.map<FlowResult>(
      "table2", static_cast<int64_t>(flows.size()), [&](int64_t i) {
        return flows[static_cast<size_t>(i)]->evaluate();
      });

  const FlowResult& verilog = results.front();
  table.verilog_best_quality =
      std::max(verilog.initial.quality(), verilog.optimized.quality());

  for (FlowResult& r : results) {
    Table2Column col;
    col.quality_initial = r.initial.quality();
    col.quality_opt = r.optimized.quality();
    col.automation_initial =
        core::automation_percent(r.loc.initial, verilog.loc.initial);
    col.automation_opt =
        core::automation_percent(r.loc.optimized, verilog.loc.optimized);
    double best = std::max(col.quality_initial, col.quality_opt);
    col.controllability =
        core::controllability_percent(best, table.verilog_best_quality);
    col.flexibility =
        core::flexibility(best, col.quality_initial, r.loc.delta);
    col.flow = std::move(r);
    table.columns.push_back(std::move(col));
  }
  return table;
}

namespace {

/// Relabels a sweep task with a "+wide" config suffix (narrowing off): the
/// wrapped run re-tags its point so config strings and point labels agree
/// at any worker count.
SweepTask wide_variant(SweepTask t) {
  const std::string config = t.config + "+wide";
  auto inner = std::move(t.run);
  t.config = config;
  t.run = [inner = std::move(inner), config]() {
    core::ScatterPoint p = inner();
    p.config = config;
    return p;
  };
  return t;
}

/// One (workload, builder) DSE cell evaluated against its registry spec.
SweepTask workload_task(const std::string& workload_name,
                        const workload::BuilderInfo& builder,
                        const CompileOptions& copts) {
  return SweepTask{
      builder.flow, workload_name + "." + builder.name,
      [workload_name, name = builder.name, flow = builder.flow, copts] {
        const workload::WorkloadSpec& spec =
            workload::Registry::instance().get(workload_name);
        DesignEvaluation ev =
            evaluate_design(spec.builder(name).build(), spec, copts);
        return point(flow, workload_name + "." + name, ev, workload_name);
      }};
}

std::vector<core::ScatterPoint> run_tasks(const char* label,
                                          std::vector<SweepTask> tasks,
                                          int jobs) {
  par::SweepRunner runner(jobs);
  return runner.map<core::ScatterPoint>(
      label, static_cast<int64_t>(tasks.size()), [&](int64_t i) {
        return tasks[static_cast<size_t>(i)].run();
      });
}

}  // namespace

std::vector<core::ScatterPoint> full_dse(int jobs) {
  std::vector<SweepTask> tasks;
  // Axis 1+2: every flow's sweep (stage counts, scheduler objectives, tool
  // options) with width narrowing on, then the same grid with narrowing
  // off ("+wide") — the cost of over-declared widths made visible per
  // configuration.
  for (const auto& flow : make_flows())
    for (SweepTask& t : flow->sweep_tasks()) tasks.push_back(std::move(t));
  CompileOptions wide;
  wide.narrow = false;
  for (const auto& flow : make_flows(wide))
    for (SweepTask& t : flow->sweep_tasks())
      tasks.push_back(wide_variant(std::move(t)));
  // Axis 3: the non-IDCT workload-registry cells (the IDCT is axes 1-2),
  // so the scatter carries per-workload A/P/Q fronts.
  for (const std::string& w : workload::Registry::instance().names()) {
    if (w == "idct") continue;
    const workload::WorkloadSpec& spec = workload::Registry::instance().get(w);
    for (const workload::BuilderInfo& b : spec.builders) {
      if (b.slow) continue;
      tasks.push_back(workload_task(w, b, CompileOptions{}));
    }
  }
  return run_tasks("full_dse", std::move(tasks), jobs);
}

std::string render_table1() {
  core::Table t({"Language", "Paradigm", "Tool", "Type", "Openness"});
  for (const auto& flow : make_flows()) {
    ToolInfo i = flow->info();
    t.add_row({i.language, i.paradigm, i.tool, i.type, i.openness});
  }
  return t.render();
}

std::string render_table2(const Table2& table) {
  using hlshc::format_fixed;
  using hlshc::format_grouped;
  std::vector<std::string> header = {"Row"};
  for (const auto& c : table.columns) {
    header.push_back(c.flow.info.tool + "/init");
    header.push_back(c.flow.info.tool + "/opt");
  }
  core::Table t(header);
  auto row = [&](const std::string& name, auto get_init, auto get_opt) {
    std::vector<std::string> cells = {name};
    for (const auto& c : table.columns) {
      cells.push_back(get_init(c));
      cells.push_back(get_opt(c));
    }
    t.add_row(std::move(cells));
  };
  auto both = [&](const std::string& name, auto get) {
    row(
        name, [&](const Table2Column& c) { return get(c.flow.initial); },
        [&](const Table2Column& c) { return get(c.flow.optimized); });
  };

  row(
      "LOC (incl options)",
      [](const Table2Column& c) { return std::to_string(c.flow.loc.initial); },
      [](const Table2Column& c) {
        return std::to_string(c.flow.loc.optimized);
      });
  row(
      "Modification dL",
      [](const Table2Column& c) { return std::to_string(c.flow.loc.delta); },
      [](const Table2Column&) { return std::string("-"); });
  row(
      "Automation a, %",
      [](const Table2Column& c) { return format_fixed(c.automation_initial, 1); },
      [](const Table2Column& c) { return format_fixed(c.automation_opt, 1); });
  row(
      "Quality Q=P/A",
      [](const Table2Column& c) { return format_fixed(c.quality_initial, 0); },
      [](const Table2Column& c) { return format_fixed(c.quality_opt, 0); });
  row(
      "Controllability C_Q, %",
      [](const Table2Column& c) { return format_fixed(c.controllability, 1); },
      [](const Table2Column&) { return std::string("-"); });
  row(
      "Flexibility F_Q",
      [](const Table2Column& c) { return format_fixed(c.flexibility, 1); },
      [](const Table2Column&) { return std::string("-"); });
  both("Frequency, MHz",
       [](const DesignEvaluation& e) { return format_fixed(e.fmax_mhz, 2); });
  both("Throughput, MOPS", [](const DesignEvaluation& e) {
    return format_fixed(e.throughput_mops, 2);
  });
  both("Latency, cycles", [](const DesignEvaluation& e) {
    return std::to_string(e.latency_cycles);
  });
  both("Periodicity, cycles", [](const DesignEvaluation& e) {
    return format_fixed(e.periodicity_cycles, 1);
  });
  both("Area N*LUT+N*FF", [](const DesignEvaluation& e) {
    return format_grouped(e.area);
  });
  both("N*LUT (maxdsp=0)", [](const DesignEvaluation& e) {
    return format_grouped(e.n_lut_star);
  });
  both("N*FF (maxdsp=0)", [](const DesignEvaluation& e) {
    return format_grouped(e.n_ff_star);
  });
  both("N_LUT", [](const DesignEvaluation& e) {
    return format_grouped(e.n_lut);
  });
  both("N_FF",
       [](const DesignEvaluation& e) { return format_grouped(e.n_ff); });
  both("N_DSP",
       [](const DesignEvaluation& e) { return format_grouped(e.n_dsp); });
  both("Pipeline dN nodes", [](const DesignEvaluation& e) {
    return std::to_string(e.pipeline.nodes_delta());
  });
  both("Pipeline iterations", [](const DesignEvaluation& e) {
    return std::to_string(e.pipeline.iterations);
  });
  row(
      "Functional",
      [](const Table2Column& c) {
        return c.flow.initial.functional ? std::string("yes")
                                         : std::string("NO");
      },
      [](const Table2Column& c) {
        return c.flow.optimized.functional ? std::string("yes")
                                           : std::string("NO");
      });
  return t.render();
}

std::string table2_csv(const Table2& table) {
  std::ostringstream os;
  os << "tool,config,loc,delta_loc,automation_pct,quality,controllability_"
        "pct,flexibility,fmax_mhz,throughput_mops,latency,periodicity,area,"
        "n_lut_star,n_ff_star,n_lut,n_ff,n_dsp,n_io,pipeline_nodes_before,"
        "pipeline_nodes_after,functional\n";
  auto row = [&](const Table2Column& c, bool opt) {
    const core::DesignEvaluation& e = opt ? c.flow.optimized : c.flow.initial;
    os << c.flow.info.tool << ',' << (opt ? "optimized" : "initial") << ','
       << (opt ? c.flow.loc.optimized : c.flow.loc.initial) << ','
       << c.flow.loc.delta << ','
       << format_fixed(opt ? c.automation_opt : c.automation_initial, 1)
       << ',' << format_fixed(opt ? c.quality_opt : c.quality_initial, 1)
       << ',' << format_fixed(c.controllability, 1) << ','
       << format_fixed(c.flexibility, 2) << ','
       << format_fixed(e.fmax_mhz, 2) << ','
       << format_fixed(e.throughput_mops, 3) << ',' << e.latency_cycles
       << ',' << format_fixed(e.periodicity_cycles, 1) << ',' << e.area
       << ',' << e.n_lut_star << ',' << e.n_ff_star << ',' << e.n_lut << ','
       << e.n_ff << ',' << e.n_dsp << ',' << e.n_io << ','
       << e.pipeline.nodes_before() << ',' << e.pipeline.nodes_after() << ','
       << (e.functional ? "yes" : "no") << '\n';
  };
  for (const Table2Column& c : table.columns) {
    row(c, false);
    row(c, true);
  }
  return os.str();
}

}  // namespace hlshc::tools
