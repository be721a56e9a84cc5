#include "obs/trace.hpp"

#include <fstream>

namespace hlshc::obs {

int64_t current_tid() {
  static std::atomic<int64_t> next{1};
  thread_local int64_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

namespace {

thread_local TraceContext t_current_trace;

/// splitmix64 finalizer: spreads the sequential mint counters over the id
/// space so ids from different runs/sessions don't collide visually, while
/// staying a pure function of the counter (no wall clock, no global RNG).
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

TraceContext new_trace() {
  static std::atomic<uint64_t> next{1};
  TraceContext ctx;
  ctx.trace_id = mix64(next.fetch_add(1, std::memory_order_relaxed));
  if (ctx.trace_id == 0) ctx.trace_id = 1;  // 0 is reserved for "no trace"
  return ctx;
}

TraceContext child_of(const TraceContext& ctx) {
  if (!ctx.valid()) return {};
  static std::atomic<uint64_t> next_span{1};
  TraceContext child;
  child.trace_id = ctx.trace_id;
  child.span_id = next_span.fetch_add(1, std::memory_order_relaxed);
  child.parent_span_id = ctx.span_id;
  return child;
}

const TraceContext& current_trace() { return t_current_trace; }

void set_current_trace(const TraceContext& ctx) { t_current_trace = ctx; }

std::string trace_id_hex(uint64_t id) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[id & 0xF];
    id >>= 4;
  }
  return out;
}

uint64_t parse_trace_id(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t id = 0;
  for (const char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') digit = static_cast<uint64_t>(c - 'A' + 10);
    else return 0;
    id = (id << 4) | digit;
  }
  return id;
}

TraceScope::TraceScope(const TraceContext& ctx) : prev_(t_current_trace) {
  t_current_trace = ctx;
}

TraceScope::~TraceScope() { t_current_trace = prev_; }

void Tracer::start() {
  if (!kTraceCompiled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  epoch_ns_ = now_ns();
  active_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { active_.store(false, std::memory_order_relaxed); }

int64_t Tracer::now_us() const { return (now_ns() - epoch_ns_) / 1000; }

void Tracer::record(TraceEvent event) {
  if (!active()) return;
  event.tid = current_tid();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string name, std::string category) {
  if (!active()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.start_us = now_us();
  e.tid = current_tid();
  e.instant = true;
  const TraceContext& ctx = current_trace();
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.parent_span_id = ctx.parent_span_id;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(e));
}

// kept: test isolation between traced tests.
void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

Json Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json list = Json::array();
  for (const TraceEvent& e : events_) {
    Json entry = Json::object();
    entry.set("name", Json::string(e.name));
    entry.set("cat", Json::string(e.category.empty() ? "hlshc" : e.category));
    entry.set("ph", Json::string(e.instant ? "i" : "X"));
    entry.set("ts", Json::number(e.start_us));
    if (!e.instant) entry.set("dur", Json::number(e.duration_us));
    if (e.instant) entry.set("s", Json::string("p"));  // process-scoped mark
    entry.set("pid", Json::number(int64_t{1}));
    entry.set("tid", Json::number(e.tid));
    if (!e.args.empty() || e.trace_id != 0) {
      Json args = Json::object();
      // Correlation ids lead, so the viewer's detail pane shows the request
      // identity first on every span of a traced request.
      if (e.trace_id != 0) {
        args.set("trace_id", Json::string(trace_id_hex(e.trace_id)));
        args.set("span_id", Json::string(trace_id_hex(e.span_id)));
        args.set("parent_span_id",
                 Json::string(trace_id_hex(e.parent_span_id)));
      }
      for (const auto& [k, v] : e.args) args.set(k, Json::string(v));
      entry.set("args", std::move(args));
    }
    list.push(std::move(entry));
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(list));
  out.set("displayTimeUnit", Json::string("ms"));
  return out;
}

void Tracer::write_file(const std::string& path) const {
  std::ofstream out(path);
  HLSHC_CHECK(out.good(), "cannot open trace output file '" << path << '\'');
  out << to_json().dump(2);
  out.close();
  HLSHC_CHECK(out.good(), "failed writing trace output file '" << path << '\'');
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace hlshc::obs
