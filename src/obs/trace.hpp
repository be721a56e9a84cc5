// Structured event tracer emitting Chrome trace_event JSON.
//
// The tracer records *phases* — engine compile, testbench runs, synth
// passes, HLS scheduling, fault-campaign sweeps — as complete ("X") events
// with microsecond timestamps. The output file loads directly into
// chrome://tracing or ui.perfetto.dev, which is how the hotspot work in the
// perf PRs is meant to be read: open the trace, find the widest span, go
// optimize that.
//
// Overhead contract: spans are recorded only while the tracer is *active*
// (between start() and stop()); an inactive Span constructor is a bool test
// against a constant-false and nothing else. Builds configured with
// -DHLSHC_TRACE=OFF compile the tracer to stubs (kTraceCompiled == false),
// so release binaries carry no tracing branches at all — the `trace` CMake
// option from the build README.
//
// Per-*cycle* events are deliberately not traced: at millions of cycles per
// second even a disabled branch adds up, and a flame chart of 2^20
// identical 200ns slices is useless. Cycle-grain data goes through the
// metrics registry and ActivityProfile instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

#ifndef HLSHC_TRACE
#define HLSHC_TRACE 1
#endif

namespace hlshc::obs {

/// True when the build carries tracer code (CMake option HLSHC_TRACE).
inline constexpr bool kTraceCompiled = HLSHC_TRACE != 0;

/// Stable small integer id for the calling thread, used as the Chrome trace
/// "tid": the main thread is lane 1, every further thread (pool workers) the
/// next integer in first-use order — so a parallel campaign renders as one
/// swimlane per worker and the schedule is visible at a glance.
int64_t current_tid();

// ---- request-scoped trace contexts ----------------------------------------
//
// A TraceContext is the correlation token of one *request* (a service
// request, or one CLI/bench invocation): a process-unique trace_id plus the
// current span lineage within that trace. It is propagated explicitly —
// minted at admission, installed on the handling thread with a TraceScope,
// adopted by par::Pool workers for the duration of a parallel loop — so one
// request yields ONE correlated span tree even when its work shards across
// threads. Spans and EventLog events stamp the ids of the context current
// on their thread; a zero trace_id means "no request in flight" and nothing
// is stamped.
//
// Propagation is independent of the Tracer being active: reading the
// thread-local context is one TLS load, so the service always correlates
// its event log and metrics, while full span trees appear only while the
// tracer collects.

/// (trace_id, span_id, parent_span_id). span_id == 0 marks "trace open, no
/// enclosing span yet" — the state between admission and the root span.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// Mints a fresh root context: a process-unique nonzero trace_id, no span.
TraceContext new_trace();

/// A child context inside the same trace: fresh span_id, parent = the
/// context's span_id. Invalid contexts beget invalid contexts.
TraceContext child_of(const TraceContext& ctx);

/// The context current on this thread (invalid when none was installed).
const TraceContext& current_trace();

/// Replaces the thread's current context. Prefer TraceScope/Span, which
/// restore the previous context; this is their (and the pool's) substrate.
void set_current_trace(const TraceContext& ctx);

/// Fixed-width lowercase-hex rendering of a trace/span id ("00c0ffee…"),
/// the wire format used in responses, event logs, and trace args.
std::string trace_id_hex(uint64_t id);
/// Inverse of trace_id_hex; returns 0 on malformed input.
uint64_t parse_trace_id(std::string_view hex);

/// RAII: installs `ctx` as the thread's current context, restoring the
/// previous one on destruction. Cheap enough to use unconditionally.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
};

/// One completed span or instant marker, in trace_event terms.
struct TraceEvent {
  std::string name;
  std::string category;
  int64_t start_us = 0;
  int64_t duration_us = 0;        ///< 0 + instant==true → "i" event
  int64_t tid = 1;                ///< trace lane (current_tid() of recorder)
  bool instant = false;
  uint64_t trace_id = 0;          ///< request correlation; 0 = untraced
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Collects events in memory; to_json()/write_file() emit the standard
/// {"traceEvents": [...]} envelope. One process-wide instance (tracer()).
///
/// Thread-safety: record()/instant() serialize on an internal mutex so pool
/// workers can emit spans concurrently; start()/stop() must not race active
/// recording (benches start the tracer before spawning workers).
class Tracer {
 public:
  /// Begin collecting. Clears any previously recorded events and anchors
  /// t=0 at the call, so span timestamps are small and stable-ish.
  void start();
  /// Stop collecting; already-recorded events are kept for export.
  void stop();
  bool active() const {
    return kTraceCompiled && active_.load(std::memory_order_relaxed);
  }

  /// Timestamp for record(); microseconds since start().
  int64_t now_us() const;

  void record(TraceEvent event);
  /// Zero-duration marker ("i" event) — campaign progress ticks etc.
  void instant(std::string name, std::string category);

  void clear();

  /// Chrome trace_event JSON object format: {"traceEvents": [...],
  /// "displayTimeUnit": "ms"}. Every event carries name/cat/ph/ts/pid/tid.
  Json to_json() const;
  /// Dump to_json() to a file; throws hlshc::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::atomic<bool> active_{false};
  int64_t epoch_ns_ = 0;
  mutable std::mutex mutex_;  ///< guards events_
  std::vector<TraceEvent> events_;
};

Tracer& tracer();

/// RAII span: stamps the start on construction, records a complete event on
/// end() or destruction. When the tracer is inactive (or tracing compiled
/// out) every method is a no-op. arg() attaches string key/values shown in
/// the trace viewer's detail pane.
///
/// When a request context is current on the thread, a live span becomes a
/// node of that request's span tree: it mints a child span id, stamps
/// (trace_id, span_id, parent_span_id) on its event, and installs itself as
/// the current context until end() — so nested spans (and spans on pool
/// workers that adopted the context) chain into one tree per trace_id.
class Span {
 public:
  Span(std::string name, std::string category) {
    if (!tracer().active()) return;
    live_ = true;
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.start_us = tracer().now_us();
    const TraceContext& current = current_trace();
    if (current.valid()) {
      const TraceContext ctx = child_of(current);
      event_.trace_id = ctx.trace_id;
      event_.span_id = ctx.span_id;
      event_.parent_span_id = ctx.parent_span_id;
      prev_ = current;
      scoped_ = true;
      set_current_trace(ctx);
    }
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& arg(std::string key, std::string value) {
    if (live_) event_.args.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Span& arg(std::string key, int64_t value) {
    return arg(std::move(key), std::to_string(value));
  }

  /// Close the span early (for sequential phases sharing one scope).
  void end() {
    if (!live_) return;
    live_ = false;
    if (scoped_) {
      scoped_ = false;
      set_current_trace(prev_);
    }
    event_.duration_us = tracer().now_us() - event_.start_us;
    tracer().record(std::move(event_));
  }

 private:
  bool live_ = false;
  bool scoped_ = false;
  TraceContext prev_;
  TraceEvent event_;
};

}  // namespace hlshc::obs
