// End-to-end trace-context propagation tests: one request (or one bench
// invocation) must yield ONE correlated span tree — across the service
// layer, the compile pipeline, evaluation, and par::Pool workers — and
// turning the correlation machinery loose on a parallel campaign must not
// change the campaign's results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtl/designs.hpp"
#include "svc/server.hpp"
#include "workload/workload.hpp"

namespace obs = hlshc::obs;
namespace fault = hlshc::fault;
namespace svc = hlshc::svc;

namespace {

#define SKIP_IF_TRACER_COMPILED_OUT()                          \
  do {                                                         \
    if (!obs::kTraceCompiled)                                  \
      GTEST_SKIP() << "tracer compiled out (HLSHC_TRACE=OFF)"; \
  } while (0)

/// One recorded span, decoded from the tracer's Chrome-JSON export.
struct SpanInfo {
  std::string name;
  std::string trace_id;        // 16-char hex; empty when uncorrelated
  std::string span_id;
  std::string parent_span_id;
};

std::vector<SpanInfo> exported_spans() {
  const obs::Json doc = obs::tracer().to_json();
  const obs::Json& events = doc.at("traceEvents");
  std::vector<SpanInfo> spans;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    SpanInfo s;
    s.name = e.at("name").as_string();
    if (const obs::Json* args = e.find("args")) {
      if (const obs::Json* t = args->find("trace_id")) {
        s.trace_id = t->as_string();
        s.span_id = args->at("span_id").as_string();
        s.parent_span_id = args->at("parent_span_id").as_string();
      }
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

/// Asserts every span carries `want_trace` and that parent links form one
/// connected tree rooted at the installed context (whose span_id is 0).
void expect_connected_tree(const std::vector<SpanInfo>& spans,
                           const std::string& want_trace) {
  ASSERT_FALSE(spans.empty());
  std::vector<std::string> ids;
  for (const SpanInfo& s : spans) {
    EXPECT_EQ(s.trace_id, want_trace) << "span '" << s.name
                                      << "' escaped the request trace";
    ids.push_back(s.span_id);
  }
  const std::string root = obs::trace_id_hex(0);
  for (const SpanInfo& s : spans) {
    const bool at_root = s.parent_span_id == root;
    const bool linked = std::find(ids.begin(), ids.end(), s.parent_span_id) !=
                        ids.end();
    EXPECT_TRUE(at_root || linked)
        << "span '" << s.name << "' has dangling parent " << s.parent_span_id;
  }
}

/// Name multiset of the spans that are deterministic across worker counts.
/// par.chunk spans exist only when a pool actually runs the workers, and
/// each worker streams its sites through one testbench.batch_stream sweep.
std::map<std::string, int> deterministic_names(
    const std::vector<SpanInfo>& spans) {
  std::map<std::string, int> names;
  for (const SpanInfo& s : spans)
    if (s.name != "par.chunk" && s.name != "testbench.batch_stream")
      ++names[s.name];
  return names;
}

/// Runs a small seeded campaign under a fresh trace; returns the report and
/// the recorded spans through the out-params.
fault::CampaignReport traced_campaign(const hlshc::netlist::Design& d,
                                      const std::vector<fault::FaultSite>& sites,
                                      int jobs, std::string* trace_hex,
                                      std::vector<SpanInfo>* spans) {
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 20000;
  opts.keep_runs = true;
  opts.jobs = jobs;
  // Small lane counts so 24 sites keep several workers busy — the test
  // pins pool adoption, not the default lane policy.
  opts.lanes = 4;

  obs::tracer().start();
  const obs::TraceContext root = obs::new_trace();
  fault::CampaignReport report;
  {
    obs::TraceScope scope(root);
    report = fault::run_campaign(
        d, hlshc::workload::Registry::instance().get("idct"), sites, opts);
  }
  obs::tracer().stop();
  *trace_hex = obs::trace_id_hex(root.trace_id);
  *spans = exported_spans();
  obs::tracer().clear();
  return report;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::registry().reset();
    obs::tracer().stop();
    obs::tracer().clear();
    obs::event_log().clear();
  }
  void TearDown() override { SetUp(); }
};

// A traced parallel campaign produces the same connected span tree (modulo
// the par.chunk shards and thread ids) and bitwise-identical classification
// results as the serial run — correlation must be an observer, not a
// participant.
TEST_F(TraceTest, CampaignSpanTreeAndResultsAgreeAcrossJobs) {
  SKIP_IF_TRACER_COMPILED_OUT();
  const hlshc::netlist::Design d = hlshc::rtl::build_verilog_opt2();
  // Warm the design's exec-plan cache outside the traced windows, so the
  // one-off plan.compile span does not tilt the serial/parallel comparison.
  hlshc::netlist::ExecPlan::for_design(d);
  const std::vector<fault::FaultSite> sites =
      fault::sample_seu_sites(d, 24, 60, 2026);

  std::string serial_trace, parallel_trace;
  std::vector<SpanInfo> serial_spans, parallel_spans;
  const fault::CampaignReport serial =
      traced_campaign(d, sites, 1, &serial_trace, &serial_spans);
  const fault::CampaignReport parallel =
      traced_campaign(d, sites, 8, &parallel_trace, &parallel_spans);

  // Results: bitwise identical, site by site.
  EXPECT_EQ(serial.counts.masked, parallel.counts.masked);
  EXPECT_EQ(serial.counts.sdc, parallel.counts.sdc);
  EXPECT_EQ(serial.counts.detected, parallel.counts.detected);
  EXPECT_EQ(serial.counts.hang, parallel.counts.hang);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (size_t i = 0; i < serial.runs.size(); ++i)
    EXPECT_EQ(serial.runs[i].outcome, parallel.runs[i].outcome)
        << "site " << i << " classified differently under jobs=8";

  // Spans: every span of each run carries that run's trace id and links
  // into one tree. The deterministic span names match exactly; only the
  // pool's chunk spans and the per-worker sweep spans may differ.
  expect_connected_tree(serial_spans, serial_trace);
  expect_connected_tree(parallel_spans, parallel_trace);
  EXPECT_NE(serial_trace, parallel_trace);
  EXPECT_EQ(deterministic_names(serial_spans),
            deterministic_names(parallel_spans));

  const auto count_named = [](const std::vector<SpanInfo>& spans,
                              const std::string& name) {
    int n = 0;
    for (const SpanInfo& s : spans) n += s.name == name;
    return n;
  };
  // One streaming sweep per worker: jobs=8 clamps to ceil(24 sites / 4
  // lanes) = 6 workers.
  EXPECT_EQ(count_named(serial_spans, "testbench.batch_stream"), 1);
  EXPECT_EQ(count_named(parallel_spans, "testbench.batch_stream"), 6);
  const auto count_chunks = [&](const std::vector<SpanInfo>& spans) {
    return count_named(spans, "par.chunk");
  };
  EXPECT_EQ(count_chunks(serial_spans), 0);
  EXPECT_GT(count_chunks(parallel_spans), 0)
      << "jobs=8 campaign never sharded — pool adoption untested";
  for (const SpanInfo& s : parallel_spans) {
    if (s.name == "par.chunk") {
      EXPECT_EQ(s.trace_id, parallel_trace)
          << "pool worker span escaped the caller's trace";
    }
  }
}

// One service request: admission mints the id, the worker installs it, and
// the whole pipeline — svc.request, tools.compile, every netlist pass,
// evaluation — lands in one span tree whose id the response carries.
TEST_F(TraceTest, ServiceRequestYieldsOneCorrelatedSpanTree) {
  SKIP_IF_TRACER_COMPILED_OUT();
  obs::set_enabled(true);
  svc::Server server;

  obs::tracer().start();
  const std::string response = server.handle(
      R"({"id":1,"method":"evaluate","params":)"
      R"({"design":"verilog_opt2","matrices":1}})");
  obs::tracer().stop();

  const obs::Json parsed = obs::Json::parse(response);
  EXPECT_TRUE(parsed.at("ok").as_bool());
  const std::string trace_hex = parsed.at("trace_id").as_string();
  ASSERT_EQ(trace_hex.size(), 16u);

  std::vector<SpanInfo> spans;
  for (SpanInfo& s : exported_spans())
    if (s.trace_id == trace_hex) spans.push_back(std::move(s));
  expect_connected_tree(spans, trace_hex);

  const std::map<std::string, int> names = deterministic_names(spans);
  EXPECT_EQ(names.count("svc.request"), 1u);
  EXPECT_EQ(names.count("tools.compile"), 1u);
  EXPECT_EQ(names.count("netlist.pipeline"), 1u);
  EXPECT_EQ(names.count("evaluate.design"), 1u);
  bool saw_pass = false;
  for (const auto& [name, n] : names) saw_pass |= name.rfind("pass.", 0) == 0;
  EXPECT_TRUE(saw_pass) << "no netlist pass span joined the request trace";

  // The event log correlates under the same id: the svc.request summary
  // event (and the pipeline's events) are retrievable by trace_id.
  const uint64_t trace_id = obs::parse_trace_id(trace_hex);
  const std::vector<obs::Event> events =
      obs::event_log().for_trace(trace_id);
  ASSERT_FALSE(events.empty());
  bool saw_request_event = false;
  for (const obs::Event& e : events)
    saw_request_event |= e.name == "svc.request";
  EXPECT_TRUE(saw_request_event);
}

// Back-to-back requests get distinct ids, and a handling thread leaves no
// context behind for the next request to inherit.
TEST_F(TraceTest, RequestsGetDistinctTraceIds) {
  svc::Server server;
  const obs::Json a = obs::Json::parse(server.handle(
      R"({"id":1,"method":"compile","params":{"design":"verilog_opt1"}})"));
  const obs::Json b = obs::Json::parse(server.handle(
      R"({"id":2,"method":"compile","params":{"design":"verilog_opt1"}})"));
  EXPECT_TRUE(a.at("ok").as_bool());
  EXPECT_NE(a.at("trace_id").as_string(), b.at("trace_id").as_string());
  EXPECT_FALSE(obs::current_trace().valid());
}

}  // namespace
