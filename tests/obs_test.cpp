// Tests for the observability layer: the JSON model and parser, the metrics
// registry, the Chrome-trace tracer (including an end-to-end testbench run
// parsed back for well-formedness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "idct/reference.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtl/designs.hpp"
#include "sim/engine.hpp"

namespace obs = hlshc::obs;

namespace {

std::vector<hlshc::idct::Block> input_blocks(int n) {
  hlshc::SplitMix64 rng(7);
  std::vector<hlshc::idct::Block> blocks;
  for (int i = 0; i < n; ++i) {
    hlshc::idct::Block spatial{};
    for (auto& v : spatial) v = static_cast<int32_t>(rng.next_in(-256, 255));
    blocks.push_back(hlshc::idct::forward_dct_reference(spatial));
  }
  return blocks;
}

/// Every obs test leaves the process-wide switches the way it found them.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::registry().reset();
    obs::tracer().stop();
    obs::tracer().clear();
  }
  void TearDown() override { SetUp(); }
};

// ---- Json ------------------------------------------------------------------

TEST_F(ObsTest, JsonScalarRoundTrip) {
  EXPECT_EQ(obs::Json::number(int64_t{42}).dump(), "42");
  EXPECT_EQ(obs::Json::number(-7).dump(), "-7");
  EXPECT_EQ(obs::Json::boolean(true).dump(), "true");
  EXPECT_EQ(obs::Json().dump(), "null");
  EXPECT_EQ(obs::Json::string("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::Json::number(1.5).dump(), "1.5");
}

TEST_F(ObsTest, JsonObjectKeepsInsertionOrder) {
  obs::Json o = obs::Json::object();
  o.set("zebra", obs::Json::number(1))
      .set("alpha", obs::Json::number(2))
      .set("mid", obs::Json::number(3));
  EXPECT_EQ(o.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // Overwriting keeps the original position.
  o.set("zebra", obs::Json::number(9));
  EXPECT_EQ(o.dump(), "{\"zebra\":9,\"alpha\":2,\"mid\":3}");
}

TEST_F(ObsTest, JsonParseRoundTrips) {
  const std::string text =
      "{\"a\":[1,2.5,-3],\"b\":{\"x\":true,\"y\":null},\"s\":\"hi\\n\"}";
  obs::Json parsed = obs::Json::parse(text);
  EXPECT_EQ(parsed.dump(), text);
  EXPECT_EQ(parsed.at("a")[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed.at("a")[1].as_number(), 2.5);
  EXPECT_TRUE(parsed.at("b").at("x").as_bool());
  EXPECT_TRUE(parsed.at("b").at("y").is_null());
  EXPECT_EQ(parsed.at("s").as_string(), "hi\n");
}

TEST_F(ObsTest, JsonParseAcceptsWhitespaceAndUnicodeEscapes) {
  obs::Json v = obs::Json::parse("  { \"k\" : [ \"\\u0041\\u00e9\" ] }  ");
  EXPECT_EQ(v.at("k")[0].as_string(), "A\xc3\xa9");
}

TEST_F(ObsTest, JsonParseRejectsMalformed) {
  EXPECT_THROW(obs::Json::parse(""), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("{"), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("{\"a\":}"), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("[1,2"), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("[1] trailing"), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("tru"), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("\"unterminated"), hlshc::Error);
  EXPECT_THROW(obs::Json::parse("{\"a\" 1}"), hlshc::Error);
}

TEST_F(ObsTest, JsonCheckedAccessorsThrowOnKindMismatch) {
  obs::Json num = obs::Json::number(1);
  EXPECT_THROW(num.as_string(), hlshc::Error);
  EXPECT_THROW(num.at("k"), hlshc::Error);
  obs::Json arr = obs::Json::array();
  EXPECT_THROW(arr[0], hlshc::Error);
  EXPECT_EQ(num.find("k"), nullptr);
}

TEST_F(ObsTest, JsonPrettyPrintParsesBack) {
  obs::Json o = obs::Json::object();
  o.set("list", obs::Json::array().push(obs::Json::number(1)));
  o.set("empty", obs::Json::object());
  std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(obs::Json::parse(pretty).dump(), o.dump());
}

// ---- metrics registry ------------------------------------------------------

TEST_F(ObsTest, CounterGaugeTimerSemantics) {
  obs::Registry& reg = obs::registry();
  obs::Counter* c = reg.counter("t.count");
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42);
  // Same name -> same metric.
  EXPECT_EQ(reg.counter("t.count"), c);
  EXPECT_EQ(reg.counter("t.count")->value(), 42);

  reg.gauge("t.gauge")->set(2.5);
  reg.gauge("t.gauge")->set(3.5);  // last write wins
  EXPECT_DOUBLE_EQ(reg.gauge("t.gauge")->value(), 3.5);

  obs::Timer* t = reg.timer("t.timer");
  t->record_ns(100);
  t->record_ns(250);
  EXPECT_EQ(t->total_ns(), 350);
  EXPECT_EQ(t->count(), 2);
}

TEST_F(ObsTest, HistogramBucketsCountsAndPercentiles) {
  obs::Registry& reg = obs::registry();
  obs::Histogram* h = reg.histogram("t.hist");
  EXPECT_EQ(reg.histogram("t.hist"), h);  // same name -> same metric
  EXPECT_EQ(h->percentile(0.5), 0);       // empty: all quantiles 0

  // 90 fast samples and 10 slow ones: p50 lands in the fast band, p99 in
  // the slow band. Percentiles are conservative bucket upper bounds: 100
  // sits in [100, 103] (16 sub-buckets of 4 between 64 and 127), and the
  // slow band's bound is capped at the recorded max.
  for (int i = 0; i < 90; ++i) h->record(100);
  for (int i = 0; i < 10; ++i) h->record(100000);
  EXPECT_EQ(h->count(), 100);
  EXPECT_EQ(h->sum(), 90 * 100 + 10 * 100000);
  EXPECT_EQ(h->max(), 100000);
  EXPECT_EQ(h->percentile(0.5), 103);
  EXPECT_EQ(h->percentile(0.9), 103);
  EXPECT_EQ(h->percentile(0.91), 100000);
  EXPECT_EQ(h->percentile(0.99), 100000);

  h->record(0);          // zero lands in the first bucket, not UB
  h->record(-5);         // negatives clamp to zero
  EXPECT_EQ(h->count(), 102);

  // Histograms appear in the JSON export once non-empty, and reset clears.
  const obs::Json snapshot = reg.to_json();
  const obs::Json* hists = snapshot.find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::Json* entry = hists->find("t.hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_int(), 102);
  EXPECT_GE(entry->find("p99")->as_int(), entry->find("p50")->as_int());
  reg.reset();
  EXPECT_EQ(reg.histogram("t.hist")->count(), 0);
}

TEST_F(ObsTest, ConvenienceHelpersAreGatedOnEnabled) {
  obs::count("gated", 5);
  EXPECT_EQ(obs::registry().counter("gated")->value(), 0);
  obs::set_enabled(true);
  obs::count("gated", 5);
  EXPECT_EQ(obs::registry().counter("gated")->value(), 5);
  { auto t = obs::timed("gated.timer"); }
  EXPECT_EQ(obs::registry().timer("gated.timer")->count(), 1);
  obs::set_enabled(false);
  { auto t = obs::timed("gated.timer"); }
  EXPECT_EQ(obs::registry().timer("gated.timer")->count(), 1);
}

TEST_F(ObsTest, RegistryJsonExportSortsKeysAndRoundTrips) {
  obs::Registry& reg = obs::registry();
  reg.counter("z.last")->add(1);
  reg.counter("a.first")->add(2);
  reg.timer("mid")->record_ns(5);
  obs::Json out = reg.to_json();
  const auto& counters = out.at("counters").items();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.first");  // std::map order, not insertion
  EXPECT_EQ(counters[1].first, "z.last");
  EXPECT_EQ(out.at("timers").at("mid").at("count").as_int(), 1);
  EXPECT_EQ(obs::Json::parse(out.dump()).dump(), out.dump());

  reg.reset();
  EXPECT_EQ(reg.to_json().at("counters").size(), 0u);
}

// ---- tracer ----------------------------------------------------------------
//
// The four tracer tests skip under -DHLSHC_TRACE=OFF, where the tracer is
// compiled down to inert stubs — exactly the behaviour the build option
// promises, but nothing to round-trip.

#define SKIP_IF_TRACER_COMPILED_OUT()                              \
  do {                                                             \
    if (!obs::kTraceCompiled)                                      \
      GTEST_SKIP() << "tracer compiled out (HLSHC_TRACE=OFF)";     \
  } while (0)

size_t trace_event_count() {
  return obs::tracer().to_json().at("traceEvents").size();
}

TEST_F(ObsTest, SpansRecordOnlyWhileActive) {
  SKIP_IF_TRACER_COMPILED_OUT();
  { obs::Span s("ignored", "test"); }
  EXPECT_EQ(trace_event_count(), 0u);

  obs::tracer().start();
  {
    obs::Span s("phase", "test");
    s.arg("key", "value").arg("n", int64_t{7});
  }
  obs::tracer().instant("tick", "test");
  obs::tracer().stop();
  { obs::Span s("after-stop", "test"); }
  ASSERT_EQ(trace_event_count(), 2u);

  obs::Json doc = obs::tracer().to_json();
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "phase");
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_EQ(events[0].at("args").at("key").as_string(), "value");
  EXPECT_EQ(events[0].at("args").at("n").as_string(), "7");
  EXPECT_GE(events[0].at("dur").as_int(), 0);
  EXPECT_EQ(events[1].at("ph").as_string(), "i");
}

TEST_F(ObsTest, SpanEndClosesEarlyAndIsIdempotent) {
  SKIP_IF_TRACER_COMPILED_OUT();
  obs::tracer().start();
  obs::Span s("early", "test");
  s.end();
  s.end();  // second end is a no-op
  s.arg("late", "ignored after end");
  EXPECT_EQ(trace_event_count(), 1u);
  obs::Json doc = obs::tracer().to_json();
  EXPECT_EQ(doc.at("traceEvents")[0].find("args"), nullptr);
}

TEST_F(ObsTest, EndToEndTestbenchTraceIsWellFormedChromeJson) {
  SKIP_IF_TRACER_COMPILED_OUT();
  obs::tracer().start();
  hlshc::netlist::Design d = hlshc::rtl::build_verilog_opt2();
  auto engine = hlshc::sim::make_engine(d);
  hlshc::axis::StreamTestbench tb(*engine);
  tb.run(input_blocks(2), 100000);
  obs::tracer().stop();

  // Round-trip through the parser: the acceptance-criteria check that the
  // emitted trace is real JSON, not JSON-shaped text.
  obs::Json doc = obs::Json::parse(obs::tracer().to_json().dump(2));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_GT(events.size(), 0u);
  bool saw_testbench = false, saw_plan = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    // Chrome requires these fields on every event.
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_FALSE(e.at("ph").as_string().empty());
    EXPECT_GE(e.at("ts").as_int(), 0);
    e.at("pid").as_int();
    e.at("tid").as_int();
    if (e.at("name").as_string() == "testbench.run") saw_testbench = true;
    if (e.at("name").as_string() == "plan.compile") saw_plan = true;
  }
  EXPECT_TRUE(saw_testbench);
  EXPECT_TRUE(saw_plan);
}

TEST_F(ObsTest, TracerWriteFileParsesBack) {
  SKIP_IF_TRACER_COMPILED_OUT();
  obs::tracer().start();
  { obs::Span s("io", "test"); }
  obs::tracer().stop();
  std::string path = ::testing::TempDir() + "obs_trace_test.json";
  obs::tracer().write_file(path);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  obs::Json doc = obs::Json::parse(text);
  EXPECT_EQ(doc.at("traceEvents").size(), 1u);
}

// ---- metrics from instrumented subsystems ---------------------------------

TEST_F(ObsTest, TestbenchRunPublishesAxisAndSimMetrics) {
  obs::set_enabled(true);
  hlshc::netlist::Design d = hlshc::rtl::build_verilog_opt2();
  auto engine = hlshc::sim::make_engine(d);
  hlshc::axis::StreamTestbench tb(*engine);
  tb.run(input_blocks(2), 100000);
  obs::Registry& reg = obs::registry();
  // 2 matrices x 8 beats on each side; a clean run has no violations.
  EXPECT_EQ(reg.counter("axis.s.beats")->value(), 16);
  EXPECT_EQ(reg.counter("axis.m.beats")->value(), 16);
  EXPECT_EQ(reg.counter("axis.s.violations")->value(), 0);
  EXPECT_GT(reg.timer("sim.eval")->count(), 0);
  EXPECT_GT(reg.timer("sim.commit")->count(), 0);
}

// ---- Histogram percentile edge cases ---------------------------------------

TEST_F(ObsTest, HistogramPercentileEdgeCases) {
  obs::Histogram* h = obs::registry().histogram("t.edges");
  // Empty histogram: every quantile (including out-of-range p) is 0.
  EXPECT_EQ(h->percentile(0.0), 0);
  EXPECT_EQ(h->percentile(1.0), 0);
  EXPECT_EQ(h->percentile(-3.0), 0);
  EXPECT_EQ(h->percentile(7.0), 0);

  for (int i = 0; i < 10; ++i) h->record(1000);
  h->record(1u << 20);  // one large sample defines the max

  // p clamps into [0, 1]: below-range behaves like p=0, above-range (and
  // NaN) like safe extremes — never UB, never a throw.
  EXPECT_EQ(h->percentile(-0.5), h->percentile(0.0));
  EXPECT_EQ(h->percentile(1.5), h->percentile(1.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(h->percentile(nan), h->percentile(0.0));

  // p=1 lands in the top occupied bucket, whose bound is capped at the
  // true maximum; 1000 sits in the sub-bucket [992, 1023].
  EXPECT_EQ(h->percentile(1.0), static_cast<int64_t>(1u << 20));
  EXPECT_EQ(h->percentile(0.0), 1023);
  EXPECT_EQ(h->percentile(0.5), 1023);
  EXPECT_LE(h->percentile(0.5), h->percentile(0.99));

  // Values below 16 have a bucket each, so they are reported exactly.
  obs::Histogram* small = obs::registry().histogram("t.small");
  for (int v = 0; v < 16; ++v) small->record(v);
  EXPECT_EQ(small->percentile(0.5), 7);
  EXPECT_EQ(small->percentile(1.0), 15);

  // The top bucket (bit_width 63) reports max(), not a 2^63-scale bound.
  obs::Histogram* huge = obs::registry().histogram("t.huge");
  huge->record(std::numeric_limits<int64_t>::max() - 5);
  EXPECT_EQ(huge->percentile(0.5), std::numeric_limits<int64_t>::max() - 5);
}

// Log-linear buckets bound the error: on a seeded sample spread over nine
// decades, every percentile is the exact nearest-rank value or at most
// 6.25% (one sub-bucket width) above it.
TEST_F(ObsTest, HistogramPercentilesAreWithinOneSixteenthOfNearestRank) {
  obs::Histogram* h = obs::registry().histogram("t.accuracy");
  hlshc::SplitMix64 rng(2026);
  std::vector<int64_t> sample;
  for (int i = 0; i < 20000; ++i) {
    const int decade = static_cast<int>(rng.next() % 9);
    int64_t v = 1 + static_cast<int64_t>(rng.next() % 1000);
    for (int d = 0; d < decade; ++d) v *= 10;
    sample.push_back(v);
    h->record(v);
  }
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  for (double p : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999,
                   1.0}) {
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(p * n)), 1, sample.size());
    const int64_t exact = sample[rank - 1];
    const int64_t estimate = h->percentile(p);
    EXPECT_GE(estimate, exact) << "p=" << p;
    EXPECT_LE(static_cast<double>(estimate),
              static_cast<double>(exact) * (1.0 + 1.0 / 16))
        << "p=" << p;
  }
}

// ---- labeled metric names --------------------------------------------------

TEST_F(ObsTest, LabeledMetricNames) {
  EXPECT_EQ(obs::labeled("svc.requests", "method", "compile"),
            "svc.requests{method=compile}");

  // Labeled series live in the same registry and export next to their
  // unlabeled parent.
  obs::set_enabled(true);
  obs::count("t.req");
  obs::count(obs::labeled("t.req", "method", "compile"), 2);
  const obs::Json j = obs::registry().to_json();
  EXPECT_EQ(j.at("counters").at("t.req").as_int(), 1);
  EXPECT_EQ(j.at("counters").at("t.req{method=compile}").as_int(), 2);
}

// ---- TraceContext ----------------------------------------------------------

TEST_F(ObsTest, TraceContextMintAndChild) {
  const obs::TraceContext a = obs::new_trace();
  const obs::TraceContext b = obs::new_trace();
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, 0u);  // trace open, no span yet

  const obs::TraceContext child = obs::child_of(a);
  EXPECT_EQ(child.trace_id, a.trace_id);
  EXPECT_NE(child.span_id, 0u);
  EXPECT_EQ(child.parent_span_id, a.span_id);

  const std::string hex = obs::trace_id_hex(a.trace_id);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(obs::parse_trace_id(hex), a.trace_id);
  EXPECT_EQ(obs::parse_trace_id("zzz"), 0u);
  EXPECT_EQ(obs::parse_trace_id(""), 0u);
  EXPECT_EQ(obs::parse_trace_id("00112233445566778"), 0u);  // 17 chars
}

TEST_F(ObsTest, TraceScopeInstallsAndRestores) {
  EXPECT_FALSE(obs::current_trace().valid());
  const obs::TraceContext outer = obs::new_trace();
  {
    obs::TraceScope scope(outer);
    EXPECT_EQ(obs::current_trace().trace_id, outer.trace_id);
    {
      obs::TraceScope inner(obs::new_trace());
      EXPECT_NE(obs::current_trace().trace_id, outer.trace_id);
    }
    EXPECT_EQ(obs::current_trace().trace_id, outer.trace_id);
  }
  EXPECT_FALSE(obs::current_trace().valid());
}

TEST_F(ObsTest, SpansInheritAndExtendTheCurrentContext) {
  SKIP_IF_TRACER_COMPILED_OUT();
  obs::tracer().start();
  const obs::TraceContext root = obs::new_trace();
  {
    obs::TraceScope scope(root);
    obs::Span parent("t.parent", "test");
    const obs::TraceContext at_parent = obs::current_trace();
    EXPECT_EQ(at_parent.trace_id, root.trace_id);
    EXPECT_NE(at_parent.span_id, 0u);
    {
      obs::Span child("t.child", "test");
      EXPECT_EQ(obs::current_trace().parent_span_id, at_parent.span_id);
    }
    // child ended: the parent's context is current again.
    EXPECT_EQ(obs::current_trace().span_id, at_parent.span_id);
  }
  obs::tracer().stop();

  // The exported spans carry the correlation ids in args.
  const obs::Json j = obs::tracer().to_json();
  const obs::Json& events = j.at("traceEvents");
  const std::string want = obs::trace_id_hex(root.trace_id);
  int correlated = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::Json* args = events[i].find("args");
    if (args && args->find("trace_id") &&
        args->find("trace_id")->as_string() == want)
      ++correlated;
  }
  EXPECT_EQ(correlated, 2);
}

// ---- EventLog --------------------------------------------------------------

TEST_F(ObsTest, EventLogRingBoundsAndDrops) {
  obs::EventLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 0; i < 6; ++i)
    log.emit(obs::EventLevel::kInfo, "e" + std::to_string(i));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total(), 6);
  EXPECT_EQ(log.dropped(), 2);

  // Oldest-first snapshot of the survivors: e2..e5.
  const std::vector<obs::Event> all = log.snapshot();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().name, "e2");
  EXPECT_EQ(all.back().name, "e5");
  EXPECT_GT(all.front().ts_ns, 0);  // stamped at emit
  EXPECT_NE(all.front().tid, 0);

  const std::vector<obs::Event> last2 = log.snapshot(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2.front().name, "e4");

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 6);  // totals survive clear
}

TEST_F(ObsTest, EventLogStampsAndFiltersByTrace) {
  obs::EventLog log(16);
  const obs::TraceContext a = obs::new_trace();
  const obs::TraceContext b = obs::new_trace();
  {
    obs::TraceScope scope(a);
    log.emit(obs::EventLevel::kInfo, "in_a", {{"k", "v"}});
  }
  {
    obs::TraceScope scope(b);
    log.emit(obs::EventLevel::kWarn, "in_b");
  }
  log.emit(obs::EventLevel::kDebug, "no_trace");

  const std::vector<obs::Event> of_a = log.for_trace(a.trace_id);
  ASSERT_EQ(of_a.size(), 1u);
  EXPECT_EQ(of_a[0].name, "in_a");
  EXPECT_EQ(of_a[0].trace_id, a.trace_id);
  EXPECT_EQ(log.for_trace(b.trace_id).size(), 1u);
  EXPECT_TRUE(log.for_trace(0x12345).empty());
}

TEST_F(ObsTest, EventLogJsonAndSinkParseBack) {
  obs::EventLog log(16);
  const std::string path = ::testing::TempDir() + "obs_event_log_test.jsonl";
  log.open_sink(path);

  const obs::TraceContext trace = obs::new_trace();
  {
    obs::TraceScope scope(trace);
    log.emit(obs::EventLevel::kInfo, "svc.request",
             {{"method", "compile"}, {"outcome", "ok"}});
  }
  log.emit(obs::EventLevel::kError, "bare");
  log.close_sink();

  // event_json: envelope fields plus flattened kv; ids only when traced.
  const std::vector<obs::Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  const obs::Json traced = obs::EventLog::event_json(events[0]);
  EXPECT_EQ(traced.at("level").as_string(), "info");
  EXPECT_EQ(traced.at("name").as_string(), "svc.request");
  EXPECT_EQ(traced.at("method").as_string(), "compile");
  EXPECT_EQ(traced.at("trace_id").as_string(),
            obs::trace_id_hex(trace.trace_id));
  const obs::Json bare = obs::EventLog::event_json(events[1]);
  EXPECT_EQ(bare.find("trace_id"), nullptr);
  EXPECT_EQ(bare.at("level").as_string(), "error");

  // The sink wrote one parseable JSON object per line.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const obs::Json parsed = obs::Json::parse(line);
    EXPECT_NE(parsed.find("ts_ns"), nullptr);
    EXPECT_NE(parsed.find("name"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST_F(ObsTest, LogEventHelperIsGatedOnEnabled) {
  const int64_t before = obs::event_log().total();
  obs::log_event(obs::EventLevel::kInfo, "gated.off");
  EXPECT_EQ(obs::event_log().total(), before);
  obs::set_enabled(true);
  obs::log_event(obs::EventLevel::kInfo, "gated.on");
  EXPECT_EQ(obs::event_log().total(), before + 1);
  obs::set_enabled(false);
}

}  // namespace
