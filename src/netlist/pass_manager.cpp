#include "netlist/pass_manager.hpp"

#include <utility>

#include "base/check.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hlshc::netlist {

namespace {

/// Adapter for the free-function passes: name + a callable returning the
/// change count.
class FunctionPass : public Pass {
 public:
  FunctionPass(std::string name, int (*fn)(Design&))
      : name_(std::move(name)), fn_(fn) {}
  std::string name() const override { return name_; }
  int run(Design& d) override { return fn_(d); }

 private:
  std::string name_;
  int (*fn_)(Design&);
};

int run_fold(Design& d) { return fold_constants(d).folded; }

int run_dce(Design& d) {
  PassStats s;
  d = eliminate_dead(d, &s);
  return s.removed;
}

}  // namespace

// kept: test-observation hook: the pass tests enumerate the registry.
std::vector<std::string> registered_pass_names() {
  return {"fold_constants", "narrow", "strength_reduce", "mux_simplify",
          "copy_prop",      "cse",    "eliminate_dead"};
}

std::unique_ptr<Pass> make_pass(const std::string& pass_name) {
  if (pass_name == "fold_constants")
    return std::make_unique<FunctionPass>(pass_name, run_fold);
  if (pass_name == "eliminate_dead")
    return std::make_unique<FunctionPass>(pass_name, run_dce);
  if (pass_name == "cse")
    return std::make_unique<FunctionPass>(pass_name, eliminate_common_subexpr);
  if (pass_name == "copy_prop")
    return std::make_unique<FunctionPass>(pass_name, propagate_copies);
  if (pass_name == "mux_simplify")
    return std::make_unique<FunctionPass>(pass_name, simplify_mux_bool);
  if (pass_name == "strength_reduce")
    return std::make_unique<FunctionPass>(pass_name, strength_reduce_mults);
  if (pass_name == "narrow")
    return std::make_unique<FunctionPass>(pass_name, narrow_widths);
  throw Error("unknown netlist pass '" + pass_name + "'");
}

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  HLSHC_CHECK(pass != nullptr, "null pass added to PassManager");
  passes_.push_back(std::move(pass));
  return *this;
}

PassManager& PassManager::add(const std::string& pass_name) {
  return add(make_pass(pass_name));
}

// kept: test-observation hook: pass_manager_test checks pipeline order.
std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name());
  return names;
}

Design PassManager::run(const Design& d, PassStats* stats,
                        const PipelineOptions& options) const {
  obs::Span pipeline_span("netlist.pipeline", "netlist");
  pipeline_span.arg("design", d.name())
      .arg("passes", static_cast<int64_t>(passes_.size()));

  Design work = d;
  PassStats local;
  int iteration = 0;
  bool changed = true;
  while (changed && iteration < options.max_iterations) {
    changed = false;
    for (const auto& pass : passes_) {
      const std::string pass_name = pass->name();
      if (options.deadline)
        options.deadline->check("compile pipeline for design '" + d.name() +
                                "' before pass '" + pass_name + '\'');
      // Keep the pre-pass design only when a verifier will want it.
      Design before = options.verifier ? work : Design(std::string());
      PassRun run;
      run.pass = pass_name;
      run.iteration = iteration + 1;  // 1-based: "fixed-point round N"
      run.nodes_before = work.node_count();
      const int64_t t0 = obs::now_ns();
      {
        obs::Span span("pass." + pass_name, "netlist");
        span.arg("design", d.name())
            .arg("iteration", static_cast<int64_t>(iteration));
        run.changes = pass->run(work);
        span.arg("changes", static_cast<int64_t>(run.changes));
      }
      run.wall_ns = obs::now_ns() - t0;
      run.nodes_after = work.node_count();
      if (obs::enabled()) {
        obs::registry()
            .counter("netlist.pass." + pass_name + ".changes")
            ->add(run.changes);
        obs::registry()
            .timer("netlist.pass." + pass_name + ".ns")
            ->record_ns(run.wall_ns);
        obs::log_event(obs::EventLevel::kDebug, "netlist.pass",
                       {{"pass", pass_name},
                        {"design", d.name()},
                        {"iteration", std::to_string(run.iteration)},
                        {"changes", std::to_string(run.changes)}});
      }
      if (pass_name == "fold_constants") local.folded += run.changes;
      if (pass_name == "eliminate_dead") local.removed += run.changes;
      local.runs.push_back(std::move(run));
      const int changes = local.runs.back().changes;
      if (changes > 0 && options.verifier) {
        auto divergence = options.verifier(before, work);
        if (divergence.has_value())
          throw Error("compile pipeline verification failed after pass '" +
                      pass_name + "' on design '" + d.name() +
                      "': " + *divergence);
      }
      if (changes > 0) changed = true;
    }
    ++iteration;
    if (!options.fixed_point) break;
  }
  local.iterations = iteration;
  if (stats) stats->merge(local);
  return work;
}

PassManager default_pipeline(bool strength_reduce, bool narrow) {
  PassManager pm;
  pm.add("fold_constants");
  // Narrowing runs after folding (constant subtrees collapse to points the
  // interval analysis can prove) and before strength reduction, so the CSD
  // shift-add trees are built at the narrowed multiplier widths.
  if (narrow) pm.add("narrow");
  if (strength_reduce) pm.add("strength_reduce");
  pm.add("mux_simplify");
  pm.add("copy_prop");
  pm.add("cse");
  pm.add("eliminate_dead");
  return pm;
}

Design optimize(const Design& d, PassStats* stats) {
  PassManager pm;
  pm.add("fold_constants");
  pm.add("eliminate_dead");
  return pm.run(d, stats);
}

}  // namespace hlshc::netlist
