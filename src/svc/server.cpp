#include "svc/server.hpp"

#include <deque>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include "chisel/designs.hpp"
#include "core/evaluate.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "netlist/dump.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtl/designs.hpp"
#include "sim/engine.hpp"
#include "synth/schedule.hpp"
#include "tools/flows.hpp"
#include "workload/workload.hpp"

namespace hlshc::svc {

using obs::Json;

namespace {

// ---- typed params access (every mismatch is an invalid_request) ----------

const Json* find_param(const Json& params, const char* key) {
  return params.find(key);
}

std::string require_string(const Json& params, const char* key) {
  const Json* v = find_param(params, key);
  if (!v || v->kind() != Json::Kind::kString)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        std::string("params.") + key +
                            " must be a string and is required");
  return v->as_string();
}

int64_t get_int(const Json& params, const char* key, int64_t fallback,
                int64_t min, int64_t max) {
  const Json* v = find_param(params, key);
  if (!v) return fallback;
  const std::optional<int64_t> exact = exact_int(*v);
  if (!exact)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        std::string("params.") + key +
                            " must be an integer within int64 range");
  const int64_t n = *exact;
  if (n < min || n > max)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        std::string("params.") + key + " = " +
                            std::to_string(n) + " outside [" +
                            std::to_string(min) + ", " + std::to_string(max) +
                            ']');
  return n;
}

bool get_bool(const Json& params, const char* key, bool fallback) {
  const Json* v = find_param(params, key);
  if (!v) return fallback;
  if (v->kind() != Json::Kind::kBool)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        std::string("params.") + key + " must be a bool");
  return v->as_bool();
}

/// Attaches the request's correlation id to a response line: clients quote
/// it back through the `trace` method to self-diagnose.
std::string stamp_trace(Json response, const obs::TraceContext& trace) {
  if (trace.valid())
    response.set("trace_id", Json::string(obs::trace_id_hex(trace.trace_id)));
  return response.dump();
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache),
      queue_(options.workers, options.queue_capacity) {
  // Every fast workload builder under its qualified "<workload>.<builder>"
  // name; slow builders (vhls) stay out of the long-running service.
  const workload::Registry& reg = workload::Registry::instance();
  for (const auto& [wname, spec] : reg.all())
    for (const workload::BuilderInfo& b : spec.builders)
      if (!b.slow) register_design(wname + "." + b.name, b.build);
  // The historical bare names predate the registry; keep them resolving to
  // the same IDCT builders so existing clients see no change.
  const workload::WorkloadSpec& idct = reg.get("idct");
  for (const char* name : {"verilog_initial", "verilog_opt1", "verilog_opt2",
                           "chisel_initial", "chisel_opt"})
    register_design(name, idct.builder(name).build);
  // The raw combinational matrix kernels behind the DSE's scheduler sweep.
  // The compile method's stages/objective/retime knobs pipeline a pure
  // dataflow function; the harness-wrapped registry designs above contain
  // registers, so the unwrapped kernels get their own names.
  register_design("idct.rtl_kernel", rtl::build_matrix_kernel, false);
  register_design("idct.chisel_kernel", chisel::build_matrix_kernel, false);
}

Server::~Server() = default;

void Server::register_design(const std::string& name,
                             std::function<netlist::Design()> builder,
                             bool evaluable) {
  HLSHC_CHECK(builder != nullptr, "null design builder for '" << name << '\'');
  std::lock_guard<std::mutex> lock(designs_mutex_);
  designs_[name] = {std::move(builder), evaluable, ++registrations_};
}

std::vector<std::string> Server::design_names() const {
  std::lock_guard<std::mutex> lock(designs_mutex_);
  std::vector<std::string> names;
  names.reserve(designs_.size());
  for (const auto& [name, entry] : designs_) names.push_back(name);
  return names;
}

std::vector<std::string> Server::evaluable_design_names() const {
  std::lock_guard<std::mutex> lock(designs_mutex_);
  std::vector<std::string> names;
  for (const auto& [name, entry] : designs_)
    if (entry.evaluable) names.push_back(name);
  return names;
}

std::future<std::string> Server::submit(const std::string& line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  const int64_t admitted_ns = obs::now_ns();
  // Every request — even one that fails to parse — gets a trace identity at
  // admission; it correlates the span tree, the event log, and the response.
  const obs::TraceContext trace = obs::new_trace();
  obs::count("svc.requests");

  Request req;
  try {
    req = parse_request(line, options_.max_request_bytes);
  } catch (const ProtocolError& e) {
    finish(req, error_code_name(e.code()), admitted_ns, 0, trace);
    promise->set_value(
        stamp_trace(error_response(Json(), e.code(), e.what()), trace));
    return future;
  }

  const int64_t budget_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  std::shared_ptr<const Deadline> deadline;
  if (budget_ms > 0) deadline = Deadline::shared_after_ms(budget_ms);

  if (obs::enabled()) {
    obs::Event admitted;
    admitted.level = obs::EventLevel::kDebug;
    admitted.trace_id = trace.trace_id;
    admitted.name = "svc.admitted";
    admitted.kv = {{"method", req.method}};
    obs::event_log().emit(std::move(admitted));
  }
  const bool accepted = queue_.try_submit(
      [this, promise, req = std::move(req), deadline, admitted_ns,
       trace]() mutable {
        promise->set_value(process(req, deadline, admitted_ns, trace));
      });
  if (!accepted) {
    // Shed at admission: O(1), no handler work consumed, and the hint tells
    // a well-behaved client how long to back off before retrying.
    obs::count("svc.shed");
    finish(req, "overloaded", admitted_ns, 0, trace);
    promise->set_value(stamp_trace(
        error_response(req.id, ErrorCode::kOverloaded,
                       "admission queue full (capacity " +
                           std::to_string(options_.queue_capacity) + ')',
                       options_.retry_after_ms),
        trace));
  }
  return future;
}

// kept: the synchronous entry point svc_test and trace_test drive.
std::string Server::handle(const std::string& line) {
  return submit(line).get();
}

void Server::serve(std::istream& in, std::ostream& out) {
  std::deque<std::future<std::string>> pending;
  const auto flush_ready = [&](bool block) {
    while (!pending.empty() &&
           (block || pending.front().wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      out << pending.front().get() << '\n';
      out.flush();
      pending.pop_front();
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    bool shutdown = false;
    try {
      shutdown = parse_request(line, options_.max_request_bytes).method ==
                 "shutdown";
    } catch (const ProtocolError&) {
      // submit() below answers with the structured error.
    }
    pending.push_back(submit(line));
    flush_ready(/*block=*/false);
    if (shutdown) break;
  }
  flush_ready(/*block=*/true);
}

std::string Server::process(const Request& req,
                            const std::shared_ptr<const Deadline>& deadline,
                            int64_t admitted_ns,
                            const obs::TraceContext& trace) {
  // Install the request context minted at admission: every span and event
  // below — compile passes, cache lookups, pool chunks — carries its ids.
  obs::TraceScope trace_scope(trace);
  const int64_t queue_ns = obs::now_ns() - admitted_ns;
  obs::Span span("svc.request", "svc");
  span.arg("method", req.method).arg("queue_ns", queue_ns);
  Json response;
  std::string outcome = "ok";
  // Per-request crash isolation: nothing a handler throws escapes this
  // frame — the worker thread, the queue, and the other requests live on.
  try {
    if (deadline)
      deadline->check("request '" + req.method + "' dequeued after " +
                      std::to_string(queue_ns / 1000000) + " ms in queue");
    response = ok_response(req.id, dispatch(req, deadline));
  } catch (const ProtocolError& e) {
    outcome = error_code_name(e.code());
    response = error_response(req.id, e.code(), e.what(), e.retry_after_ms());
  } catch (const DeadlineExceeded& e) {
    outcome = error_code_name(ErrorCode::kDeadlineExceeded);
    response =
        error_response(req.id, ErrorCode::kDeadlineExceeded, e.what());
  } catch (const std::exception& e) {
    outcome = error_code_name(ErrorCode::kInternalError);
    response = error_response(req.id, ErrorCode::kInternalError, e.what());
  } catch (...) {
    outcome = error_code_name(ErrorCode::kInternalError);
    response = error_response(req.id, ErrorCode::kInternalError,
                              "unknown exception in handler");
  }
  span.arg("outcome", outcome);
  finish(req, outcome, admitted_ns, queue_ns, trace);
  return stamp_trace(std::move(response), trace);
}

Json Server::dispatch(const Request& req,
                      const std::shared_ptr<const Deadline>& deadline) {
  if (req.method == "ping") {
    Json result = Json::object();
    result.set("pong", Json::boolean(true));
    return result;
  }
  if (req.method == "list_designs") {
    Json names = Json::array();
    for (const std::string& name : design_names())
      names.push(Json::string(name));
    Json evaluable = Json::array();
    for (const std::string& name : evaluable_design_names())
      evaluable.push(Json::string(name));
    Json workloads = Json::array();
    for (const std::string& name : workload::Registry::instance().names())
      workloads.push(Json::string(name));
    Json result = Json::object();
    result.set("designs", std::move(names));
    result.set("evaluable", std::move(evaluable));
    result.set("workloads", std::move(workloads));
    return result;
  }
  if (req.method == "stats") return handle_stats();
  if (req.method == "trace") return handle_trace(req);
  if (req.method == "shutdown") {
    Json result = Json::object();
    result.set("shutting_down", Json::boolean(true));
    return result;
  }
  if (req.method == "compile") return handle_compile(req, deadline);
  if (req.method == "evaluate") return handle_evaluate(req, deadline);
  if (req.method == "campaign") return handle_campaign(req, deadline);
  if (req.method == "dse") return handle_dse(req, deadline);
  throw ProtocolError(ErrorCode::kUnknownMethod,
                      "unknown method '" + req.method + '\'');
}

Server::RegisteredDesign Server::find_design(const Json& params,
                                             bool evaluate) const {
  const std::string name = require_string(params, "design");
  std::lock_guard<std::mutex> lock(designs_mutex_);
  auto it = designs_.find(name);
  if (it == designs_.end())
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "unknown design '" + name + "' (see list_designs)");
  if (evaluate && !it->second.evaluable)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "design '" + name +
                            "' has no AXI-Stream ports to drive (see "
                            "list_designs.evaluable)");
  return {name, it->second.generation, it->second.build};
}

ResolvedCompile Server::resolve_compile(
    const RegisteredDesign& design, const tools::CompileOptions& options,
    const synth::ScheduleOptions& schedule, bool need_design,
    const std::shared_ptr<const Deadline>& deadline) {
  const std::string key = DesignCache::request_key(
      design.name, design.generation, options, schedule);
  return cache_.resolve(key, need_design, [&] {
    BuiltDesign built{design.build()};
    if (deadline) deadline->check("'" + built.design.name() + "' built");
    // Scheduler knobs: stages > 0 pipelines the (combinational) function
    // before the canonical compile pipeline, the same order the DSE flows
    // use. Asking to pipeline a sequential design is a client mistake, not
    // a server fault — schedule_pipeline's diagnostic comes back verbatim.
    if (schedule.stages > 0) {
      try {
        synth::ScheduleResult scheduled =
            synth::schedule_pipeline(built.design, schedule);
        built.design = std::move(scheduled.design);
        built.latency = scheduled.latency;
        built.pipeline_regs = scheduled.pipeline_regs;
      } catch (const Error& e) {
        throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
      }
    }
    return built;
  }, options);
}

const workload::WorkloadSpec& Server::resolve_workload(
    const Json& params) const {
  const workload::Registry& reg = workload::Registry::instance();
  // Per-workload request accounting: every compile/evaluate/campaign
  // resolves its workload exactly once, right here.
  const auto counted = [](const workload::WorkloadSpec& spec)
      -> const workload::WorkloadSpec& {
    obs::count(obs::labeled("svc.requests", "workload", spec.name));
    return spec;
  };
  const Json* v = params.find("workload");
  if (v) {
    if (v->kind() != Json::Kind::kString)
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "params.workload must be a string");
    const workload::WorkloadSpec* spec = reg.find(v->as_string());
    if (!spec) {
      std::string known;
      for (const std::string& name : reg.names()) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "unknown workload '" + v->as_string() +
                              "' (known: " + known + ')');
    }
    return counted(*spec);
  }
  // Qualified design names carry their workload; a registered test design
  // that happens to contain a dot just falls through to the default.
  const Json* d = params.find("design");
  if (d && d->kind() == Json::Kind::kString) {
    const std::string& name = d->as_string();
    const size_t dot = name.find('.');
    if (dot != std::string::npos)
      if (const workload::WorkloadSpec* spec = reg.find(name.substr(0, dot)))
        return counted(*spec);
  }
  return counted(reg.get("idct"));
}

tools::CompileOptions Server::compile_options(
    const Json& params,
    const std::shared_ptr<const Deadline>& deadline) const {
  tools::CompileOptions opts = options_.compile;
  opts.optimize = get_bool(params, "optimize", opts.optimize);
  opts.strength_reduce =
      get_bool(params, "strength_reduce", opts.strength_reduce);
  opts.narrow = get_bool(params, "narrow", opts.narrow);
  opts.verify = get_bool(params, "verify", opts.verify);
  opts.deadline = deadline;
  return opts;
}

namespace {

/// Scheduler knobs shared by the compile method: params.stages (0 =
/// combinational, the default), params.objective ("balance"/"regmin"),
/// params.retime. Unknown values are an invalid_request, with the
/// synth::parse_* diagnostics naming the offending knob.
synth::ScheduleOptions schedule_options(const Json& params) {
  synth::ScheduleOptions opts;
  opts.stages = static_cast<int>(
      get_int(params, "stages", 0, 0, synth::kMaxScheduleStages));
  if (const Json* v = find_param(params, "objective")) {
    if (v->kind() != Json::Kind::kString)
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "params.objective must be a string");
    try {
      opts.objective =
          synth::parse_objective(v->as_string(), "params.objective");
    } catch (const Error& e) {
      throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
    }
  }
  opts.retime_boundaries = get_bool(params, "retime", false);
  return opts;
}

}  // namespace

Json Server::handle_compile(const Request& req,
                            const std::shared_ptr<const Deadline>& deadline) {
  // Every param is validated before the cache is consulted, so a typo is an
  // invalid_request whether or not an identical request was served before.
  const workload::WorkloadSpec& spec = resolve_workload(req.params);
  const synth::ScheduleOptions sched = schedule_options(req.params);
  const tools::CompileOptions options = compile_options(req.params, deadline);
  // The full canonical dump on request: the poison test diffs it against a
  // direct tools::compile to prove the service changes nothing.
  const bool emit_netlist = get_bool(req.params, "emit_netlist", false);
  const RegisteredDesign registered = find_design(req.params);
  const ResolvedCompile compiled =
      resolve_compile(registered, options, sched, emit_netlist, deadline);
  const CompileSummary& s = compiled.summary;

  Json result = Json::object();
  result.set("design", Json::string(s.design));
  if (sched.stages > 0) {
    result.set("stages", Json::number(static_cast<int64_t>(sched.stages)));
    result.set("objective", Json::string(synth::schedule_objective_name(
                                sched.objective)));
    result.set("latency", Json::number(s.latency));
    result.set("pipeline_regs", Json::number(s.pipeline_regs));
  }
  result.set("workload", Json::string(spec.name));
  result.set("cached", Json::boolean(compiled.hit));
  result.set("key", Json::string(s.key));
  result.set("content_hash", Json::string(s.content_hash));
  result.set("node_count", Json::number(s.node_count));
  result.set("iterations", Json::number(s.iterations));
  result.set("nodes_before", Json::number(s.nodes_before));
  result.set("nodes_after", Json::number(s.nodes_after));
  if (emit_netlist)
    result.set("netlist", Json::string(netlist::dump_text(*compiled.design)));
  return result;
}

Json Server::handle_evaluate(const Request& req,
                             const std::shared_ptr<const Deadline>& deadline) {
  const workload::WorkloadSpec& spec = resolve_workload(req.params);
  const RegisteredDesign registered = find_design(req.params, true);
  const tools::CompileOptions options = compile_options(req.params, deadline);
  core::EvaluateOptions eval;
  eval.matrices = static_cast<int>(
      get_int(req.params, "matrices", eval.matrices, 1, 64));
  eval.max_cycles = static_cast<uint64_t>(get_int(
      req.params, "max_cycles", static_cast<int64_t>(eval.max_cycles), 1,
      int64_t{1} << 40));
  eval.deadline = deadline;

  const auto respond = [&](const std::string& design, bool cached,
                           const core::DesignEvaluation& ev) {
    Json result = Json::object();
    result.set("design", Json::string(design));
    result.set("workload", Json::string(spec.name));
    result.set("cached", Json::boolean(cached));
    result.set("functional", Json::boolean(ev.functional));
    result.set("latency_cycles", Json::number(ev.latency_cycles));
    result.set("periodicity_cycles", Json::number(ev.periodicity_cycles));
    result.set("fmax_mhz", Json::number(ev.fmax_mhz));
    result.set("throughput_mops", Json::number(ev.throughput_mops));
    result.set("area", Json::number(static_cast<int64_t>(ev.area)));
    result.set("quality", Json::number(ev.quality()));
    return result;
  };
  const std::string request_key = DesignCache::request_key(
      registered.name, registered.generation, options, {});
  if (const std::optional<EvaluationHit> hit =
          cache_.find_evaluation(request_key, spec.name, eval))
    return respond(hit->design, true, hit->evaluation);

  // The same decomposition as tools::evaluate_design — compile through the
  // canonical pipeline (memoized), then the Section III.C measurement — so
  // the cache applies to the expensive half shared between methods.
  const ResolvedCompile compiled =
      resolve_compile(registered, options, {}, true, deadline);
  core::DesignEvaluation ev;
  try {
    ev = core::evaluate_axis_design(*compiled.design, spec, eval);
  } catch (const sim::SimTimeout& e) {
    // Under the default bound a wedged testbench is our bug; under the
    // client's own bound it is the client's choice.
    if (!req.params.find("max_cycles")) throw;
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "params.max_cycles = " +
                            std::to_string(eval.max_cycles) +
                            " is too few cycles to evaluate '" +
                            compiled.summary.design + "': " + e.what());
  }
  cache_.put_evaluation(compiled.summary.content_hash, spec.name, eval, ev);
  return respond(compiled.summary.design, compiled.hit, ev);
}

Json Server::handle_campaign(const Request& req,
                             const std::shared_ptr<const Deadline>& deadline) {
  const workload::WorkloadSpec& spec = resolve_workload(req.params);
  const RegisteredDesign registered = find_design(req.params, true);
  const tools::CompileOptions options = compile_options(req.params, deadline);
  const int sites =
      static_cast<int>(get_int(req.params, "sites", 16, 1, 100000));
  const uint64_t seed = static_cast<uint64_t>(
      get_int(req.params, "seed", 2026, 0, int64_t{1} << 62));
  const uint64_t max_cycle =
      static_cast<uint64_t>(get_int(req.params, "max_cycle", 40, 0, 1 << 20));
  const std::string kind = [&] {
    const Json* v = req.params.find("kind");
    if (!v) return std::string("seu");
    if (v->kind() != Json::Kind::kString)
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "params.kind must be a string");
    if (v->as_string() != "seu" && v->as_string() != "stuck")
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "params.kind must be \"seu\" or \"stuck\", got '" +
                              v->as_string() + '\'');
    return v->as_string();
  }();
  fault::CampaignOptions copts;
  copts.matrices =
      static_cast<int>(get_int(req.params, "matrices", 2, 1, 64));
  copts.jobs = static_cast<int>(get_int(req.params, "jobs", 1, 1, 256));
  // 0 = the process default (HLSHC_LANES, else 32); 1 forces scalar.
  copts.lanes = static_cast<int>(get_int(req.params, "lanes", 0, 0, 64));
  copts.progress_every = 0;  // a service response is the progress report
  copts.keep_runs = false;
  copts.deadline = deadline;

  const ResolvedCompile compiled =
      resolve_compile(registered, options, {}, true, deadline);
  const std::vector<fault::FaultSite> fault_sites =
      kind == "seu" ? fault::sample_seu_sites(*compiled.design, sites,
                                              max_cycle, seed)
                    : fault::sample_stuck_sites(*compiled.design, sites, seed);
  const fault::CampaignReport report =
      fault::run_campaign(*compiled.design, spec, fault_sites, copts);

  Json counts = Json::object();
  counts.set("masked", Json::number(report.counts.masked));
  counts.set("sdc", Json::number(report.counts.sdc));
  counts.set("protocol", Json::number(report.counts.protocol));
  counts.set("detected", Json::number(report.counts.detected));
  counts.set("hang", Json::number(report.counts.hang));
  Json result = Json::object();
  result.set("design", Json::string(compiled.summary.design));
  result.set("workload", Json::string(spec.name));
  result.set("cached", Json::boolean(compiled.hit));
  result.set("reference_functional",
             Json::boolean(report.reference_functional));
  result.set("sites", Json::number(report.counts.total()));
  result.set("counts", std::move(counts));
  result.set("vulnerability", Json::number(report.counts.vulnerability()));
  return result;
}

Json Server::handle_dse(const Request& req,
                        const std::shared_ptr<const Deadline>& deadline) {
  const std::string family = require_string(req.params, "flow");
  const int64_t limit = get_int(req.params, "limit", 1 << 20, 1, 1 << 20);

  // The narrowing knob reshapes every flow's sweep grid (params.narrow =
  // false regenerates the pre-narrowing design space).
  std::vector<std::unique_ptr<tools::Flow>> flows =
      tools::make_flows(compile_options(req.params, deadline));
  const tools::Flow* flow = nullptr;
  std::string known;
  for (const auto& f : flows) {
    if (!known.empty()) known += ", ";
    known += f->family();
    if (f->family() == family) flow = f.get();
  }
  if (!flow)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "unknown flow '" + family + "' (known: " + known +
                            ')');

  Json points = Json::array();
  int64_t ran = 0;
  for (const tools::SweepTask& task : flow->sweep_tasks()) {
    if (ran >= limit) break;
    if (deadline)
      deadline->check("DSE sweep '" + family + "' before point " +
                      task.config);
    const core::ScatterPoint p = task.run();
    Json point = Json::object();
    point.set("family", Json::string(p.family));
    point.set("config", Json::string(p.config));
    point.set("throughput_mops", Json::number(p.throughput_mops));
    point.set("area", Json::number(static_cast<int64_t>(p.area)));
    point.set("quality", Json::number(p.quality()));
    points.push(std::move(point));
    ++ran;
  }
  Json result = Json::object();
  result.set("flow", Json::string(family));
  result.set("points", std::move(points));
  return result;
}

Json Server::handle_trace(const Request& req) const {
  const int64_t limit = get_int(req.params, "limit", 32, 1, 1024);
  uint64_t want_trace = 0;
  if (const Json* v = req.params.find("trace_id")) {
    if (v->kind() != Json::Kind::kString)
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "params.trace_id must be a hex string "
                          "(the response field of an earlier request)");
    want_trace = obs::parse_trace_id(v->as_string());
    if (want_trace == 0)
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "params.trace_id '" + v->as_string() +
                              "' is not a valid trace id");
  }

  Json requests = Json::array();
  int64_t listed = 0;
  for (const RequestRecord& r : recent_requests()) {
    if (want_trace != 0 && r.trace_id != want_trace) continue;
    if (listed >= limit) break;
    Json row = Json::object();
    row.set("trace_id", Json::string(obs::trace_id_hex(r.trace_id)));
    row.set("method", Json::string(r.method));
    if (!r.design.empty()) row.set("design", Json::string(r.design));
    row.set("outcome", Json::string(r.outcome));
    row.set("queue_ms",
            Json::number(static_cast<double>(r.queue_ns) / 1e6));
    row.set("total_ms",
            Json::number(static_cast<double>(r.total_ns) / 1e6));
    requests.push(std::move(row));
    ++listed;
  }

  // Correlated event-log entries for one specific trace. Events exist only
  // while obs::enabled(); events_recorded tells the client which case an
  // empty list means.
  Json events = Json::array();
  if (want_trace != 0)
    for (const obs::Event& e : obs::event_log().for_trace(want_trace))
      events.push(obs::EventLog::event_json(e));

  Json result = Json::object();
  result.set("requests", std::move(requests));
  if (want_trace != 0) {
    result.set("trace_id", Json::string(obs::trace_id_hex(want_trace)));
    result.set("events", std::move(events));
  }
  result.set("events_recorded", Json::boolean(obs::enabled()));
  return result;
}

Json Server::handle_stats() const {
  const DesignCache::Stats cs = cache_.stats();
  Json cache = Json::object();
  cache.set("hits", Json::number(cs.hits));
  cache.set("misses", Json::number(cs.misses));
  cache.set("evictions", Json::number(cs.evictions));
  cache.set("bytes", Json::number(static_cast<int64_t>(cs.bytes)));
  cache.set("entries", Json::number(static_cast<int64_t>(cs.entries)));
  // The memo tiers in front of the content entries (their hits are part of
  // "hits" above).
  const auto tier = [](const DesignCache::TierStats& t) {
    Json out = Json::object();
    out.set("entries", Json::number(static_cast<int64_t>(t.entries)));
    out.set("hits", Json::number(t.hits));
    return out;
  };
  cache.set("request", tier(cs.request));
  cache.set("evaluation", tier(cs.evaluation));

  Json queue = Json::object();
  queue.set("depth", Json::number(queue_.depth()));
  queue.set("capacity", Json::number(queue_.capacity()));
  queue.set("workers", Json::number(queue_.workers()));
  queue.set("accepted", Json::number(queue_.accepted()));
  queue.set("shed", Json::number(queue_.shed()));

  const obs::EventLog& log = obs::event_log();
  Json events = Json::object();
  events.set("held", Json::number(static_cast<int64_t>(log.size())));
  events.set("capacity", Json::number(static_cast<int64_t>(log.capacity())));
  events.set("total", Json::number(log.total()));
  events.set("dropped", Json::number(log.dropped()));

  Json result = Json::object();
  result.set("cache", std::move(cache));
  result.set("queue", std::move(queue));
  result.set("events", std::move(events));
  result.set("recent_requests",
             Json::number(static_cast<int64_t>(recent_requests().size())));
  if (obs::enabled()) {
    // Batched-campaign utilization passthrough: total sweeps, lane-runs
    // packed into them, and lanes that sat masked while stragglers ran.
    // A sweeps-free process reports zeros (the counters default-construct).
    obs::Registry& reg = obs::registry();
    Json batch = Json::object();
    batch.set("sweeps", Json::number(reg.counter("sim.batch.sweeps")->value()));
    batch.set("lane_runs",
              Json::number(reg.counter("sim.batch.lanes")->value()));
    batch.set("lanes_masked",
              Json::number(reg.counter("fault.lanes_masked")->value()));
    result.set("batch", std::move(batch));
    // Rewrite-pass passthrough: how much work the narrow pass is actually
    // doing across this process's compiles (0/0 when narrowing is off or
    // nothing compiled yet — the counters default-construct).
    Json passes = Json::object();
    Json narrow = Json::object();
    narrow.set("changes",
               Json::number(reg.counter("netlist.pass.narrow.changes")->value()));
    const obs::Timer* nt = reg.timer("netlist.pass.narrow.ns");
    narrow.set("runs", Json::number(nt->count()));
    narrow.set("ns", Json::number(nt->total_ns()));
    passes.set("narrow", std::move(narrow));
    result.set("passes", std::move(passes));
    result.set("metrics", obs::registry().to_json());
  }
  return result;
}

void Server::finish(const Request& req, const std::string& outcome,
                    int64_t admitted_ns, int64_t queue_ns,
                    const obs::TraceContext& trace) {
  const int64_t total_ns = obs::now_ns() - admitted_ns;

  // The recent-requests ring is always on: it is what the `trace` protocol
  // method serves, and one small record per request is cheap at any load.
  std::string design;
  if (const Json* d = req.params.find("design"))
    if (d->kind() == Json::Kind::kString) design = d->as_string();
  RequestRecord record;
  record.trace_id = trace.trace_id;
  record.method = req.method;
  record.design = design;
  record.outcome = outcome;
  record.queue_ns = queue_ns;
  record.total_ns = total_ns;
  if (options_.recent_requests > 0) {
    std::lock_guard<std::mutex> lock(recent_mutex_);
    recent_.push_back(std::move(record));
    while (recent_.size() > options_.recent_requests) recent_.pop_front();
  }

  if (!obs::enabled()) return;
  obs::Registry& reg = obs::registry();
  reg.counter(outcome == "ok" ? "svc.ok" : "svc.error." + outcome)->add(1);
  reg.counter(obs::labeled("svc.outcome", "code", outcome))->add(1);
  reg.histogram("svc.request_ns")->record(total_ns);
  if (!req.method.empty()) {
    reg.counter(obs::labeled("svc.requests", "method", req.method))->add(1);
    reg.histogram(obs::labeled("svc.request_ns", "method", req.method))
        ->record(total_ns);
  }

  obs::Event done;
  done.level = outcome == "ok" ? obs::EventLevel::kInfo
                               : obs::EventLevel::kWarn;
  done.trace_id = trace.trace_id;
  done.name = "svc.request";
  done.kv = {{"method", req.method},
             {"outcome", outcome},
             {"queue_ns", std::to_string(queue_ns)},
             {"total_ns", std::to_string(total_ns)}};
  obs::event_log().emit(std::move(done));

  // The slow-request log: one kWarn event per offender, with enough context
  // to find it again (method, design, latency split).
  if (options_.slow_request_ms > 0 &&
      total_ns > options_.slow_request_ms * 1000000) {
    obs::Event slow;
    slow.level = obs::EventLevel::kWarn;
    slow.trace_id = trace.trace_id;
    slow.name = "svc.slow_request";
    slow.kv = {{"method", req.method},
               {"design", design},
               {"threshold_ms", std::to_string(options_.slow_request_ms)},
               {"queue_ns", std::to_string(queue_ns)},
               {"total_ns", std::to_string(total_ns)}};
    obs::event_log().emit(std::move(slow));
  }
}

std::vector<Server::RequestRecord> Server::recent_requests() const {
  std::lock_guard<std::mutex> lock(recent_mutex_);
  return {recent_.rbegin(), recent_.rend()};
}

}  // namespace hlshc::svc
