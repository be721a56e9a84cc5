// obs::EventLog — a bounded, structured event log with request correlation.
//
// The tracer answers "where did the time go" with a flame chart; the event
// log answers "what happened to request X" with a queryable record: every
// event carries a level, a monotonic timestamp, the (trace_id, span_id) of
// the request context current on the emitting thread, a dotted name, and
// free-form key/value details. The service's `trace` protocol method serves
// events straight out of this log so clients can self-diagnose shed /
// deadline / cache behaviour in-band, and the hlshc_serve --event-log flag
// streams every event as one JSON object per line (JSON-lines) for offline
// analysis.
//
// Bounded by construction: a fixed-capacity ring buffer under one mutex.
// When full, the oldest event is overwritten and counted in dropped() —
// memory use cannot grow with uptime, which is the property a long-running
// daemon actually needs from its log.
//
// Overhead contract: emission through log_event() is gated on
// obs::enabled() — one predicted branch when telemetry is off, exactly like
// the metrics registry. EventLog::emit() itself is unconditional (tests and
// sinks use it directly); hot per-cycle paths must never emit events at all
// (that is what metrics are for).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hlshc::obs {

enum class EventLevel : uint8_t { kDebug, kInfo, kWarn, kError };

/// The wire name: "debug", "info", "warn", "error".
const char* event_level_name(EventLevel level);

/// One structured event. kv pairs are flattened into the JSON object, so
/// keys must not collide with the envelope fields (ts_ns, level, trace_id,
/// span_id, tid, name).
struct Event {
  EventLevel level = EventLevel::kInfo;
  int64_t ts_ns = 0;       ///< obs::now_ns() at emit
  uint64_t trace_id = 0;   ///< request correlation; 0 = no request context
  uint64_t span_id = 0;
  int64_t tid = 0;         ///< obs::current_tid() of the emitting thread
  std::string name;        ///< dotted, subsystem-first ("svc.request")
  std::vector<std::pair<std::string, std::string>> kv;
};

class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit EventLog(size_t capacity = kDefaultCapacity);

  size_t capacity() const;

  /// Records `event`, stamping ts_ns / tid / trace ids from the calling
  /// thread when they are zero. Overwrites the oldest event when full, and
  /// mirrors the event to the JSON-lines sink when one is open.
  void emit(Event event);
  /// Convenience: level + name + kv pairs.
  void emit(EventLevel level, std::string name,
            std::vector<std::pair<std::string, std::string>> kv = {});

  size_t size() const;        ///< events currently held
  int64_t total() const;      ///< events ever emitted
  int64_t dropped() const;    ///< events overwritten by ring wraparound

  /// Oldest-first copy of the newest `limit` events (0 = all held).
  std::vector<Event> snapshot(size_t limit = 0) const;
  /// Oldest-first copy of every held event stamped with `trace_id`.
  std::vector<Event> for_trace(uint64_t trace_id) const;

  /// Drops every held event (counters keep their totals).
  void clear();

  /// Opens a JSON-lines sink: every subsequent emit appends one line to
  /// `path` (truncating an existing file). Throws hlshc::Error on failure.
  void open_sink(const std::string& path);
  void close_sink();

  /// {"ts_ns":…, "level":"info", "trace_id":"00c0…", "span_id":"…",
  ///  "tid":…, "name":"svc.request", …kv…} — trace ids omitted when 0.
  static Json event_json(const Event& event);

 private:
  mutable std::mutex mutex_;
  std::vector<Event> ring_;     ///< ring_[ (start_ + i) % capacity ]
  size_t start_ = 0;            ///< index of the oldest held event
  size_t count_ = 0;            ///< events currently held
  int64_t total_ = 0;
  int64_t dropped_ = 0;
  std::string sink_path_;
  std::unique_ptr<std::ofstream> sink_;
};

/// The process-wide event log used by all instrumented subsystems.
EventLog& event_log();

/// Convenience: emit into the process-wide log iff obs::enabled() — the
/// standard call for instrumentation sites.
inline void log_event(EventLevel level, std::string name,
                      std::vector<std::pair<std::string, std::string>> kv = {}) {
  if (enabled()) event_log().emit(level, std::move(name), std::move(kv));
}

}  // namespace hlshc::obs
