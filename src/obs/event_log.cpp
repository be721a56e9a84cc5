#include "obs/event_log.hpp"

#include <algorithm>

namespace hlshc::obs {

const char* event_level_name(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug: return "debug";
    case EventLevel::kInfo: return "info";
    case EventLevel::kWarn: return "warn";
    case EventLevel::kError: return "error";
  }
  HLSHC_UNREACHABLE("bad EventLevel");
}

EventLog::EventLog(size_t capacity) { ring_.resize(std::max<size_t>(capacity, 1)); }

size_t EventLog::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

void EventLog::emit(Event event) {
  if (event.ts_ns == 0) event.ts_ns = now_ns();
  if (event.tid == 0) event.tid = current_tid();
  if (event.trace_id == 0) {
    const TraceContext& ctx = current_trace();
    event.trace_id = ctx.trace_id;
    event.span_id = ctx.span_id;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_) {
    *sink_ << event_json(event).dump() << '\n';
    sink_->flush();  // a crashing daemon must not owe the log its tail
  }
  if (count_ < ring_.size()) {
    ring_[(start_ + count_) % ring_.size()] = std::move(event);
    ++count_;
  } else {
    ring_[start_] = std::move(event);
    start_ = (start_ + 1) % ring_.size();
    ++dropped_;
  }
  ++total_;
}

void EventLog::emit(EventLevel level, std::string name,
                    std::vector<std::pair<std::string, std::string>> kv) {
  Event e;
  e.level = level;
  e.name = std::move(name);
  e.kv = std::move(kv);
  emit(std::move(e));
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

int64_t EventLog::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

int64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

// kept: test-observation hook: obs_test reads the ring with it.
std::vector<Event> EventLog::snapshot(size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t n = (limit == 0 || limit > count_) ? count_ : limit;
  std::vector<Event> out;
  out.reserve(n);
  for (size_t i = count_ - n; i < count_; ++i)
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  return out;
}

std::vector<Event> EventLog::for_trace(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  for (size_t i = 0; i < count_; ++i) {
    const Event& e = ring_[(start_ + i) % ring_.size()];
    if (e.trace_id == trace_id) out.push_back(e);
  }
  return out;
}

// kept: test isolation: svc_test and trace_test empty the global log.
void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  start_ = 0;
  count_ = 0;
}

void EventLog::open_sink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto sink = std::make_unique<std::ofstream>(path);
  HLSHC_CHECK(sink->good(),
              "cannot open event-log sink '" << path << '\'');
  sink_ = std::move(sink);
  sink_path_ = path;
}

void EventLog::close_sink() {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_.reset();
  sink_path_.clear();
}

Json EventLog::event_json(const Event& event) {
  Json out = Json::object();
  out.set("ts_ns", Json::number(event.ts_ns));
  out.set("level", Json::string(event_level_name(event.level)));
  if (event.trace_id != 0) {
    out.set("trace_id", Json::string(trace_id_hex(event.trace_id)));
    out.set("span_id", Json::string(trace_id_hex(event.span_id)));
  }
  out.set("tid", Json::number(event.tid));
  out.set("name", Json::string(event.name));
  for (const auto& [k, v] : event.kv) out.set(k, Json::string(v));
  return out;
}

EventLog& event_log() {
  static EventLog instance;
  return instance;
}

}  // namespace hlshc::obs
