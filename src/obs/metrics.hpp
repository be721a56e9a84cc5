// Process-wide metrics registry: named counters, gauges, and timers.
//
// The registry is the "always cheap" half of the observability layer. Hot
// paths guard every update behind `obs::enabled()` — a single inline bool
// load — so a release run with instrumentation off pays one predicted
// branch per call site and touches no shared state. When enabled, updates
// are relaxed atomic stores into slots owned by the registry; name lookup
// takes a mutex (call sites resolve a metric once and cache the pointer),
// while updates through a resolved pointer are lock-free. This is what lets
// the parallel execution layer (src/par) record per-worker metrics and the
// fault campaigns time runs from worker threads.
//
// Naming convention: dotted lowercase paths, subsystem first —
// "sim.eval_ns", "axis.s.beats", "fault.campaign.sites". The JSON export
// sorts keys so BENCH_*.json metric blocks diff cleanly across PRs.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace hlshc::obs {

/// Master switch for metrics + activity accounting. Off by default; benches
/// and tests that want telemetry flip it explicitly. Tracing has its own
/// switch (the Tracer is active only between start()/stop()).
bool enabled();
void set_enabled(bool on);

/// Monotonic wall-clock in nanoseconds (steady_clock based).
int64_t now_ns();

class Registry;

/// Monotonically increasing count (events, beats, toggles). Updates are
/// relaxed atomics: safe from any thread, with no ordering implied between
/// metrics (reports snapshot after the workers join).
class Counter {
 public:
  void add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins sample (queue depth, slot count, ratio).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<double> value_{0.0};
};

/// Accumulated duration + invocation count. Use ScopedTimer to feed it.
class Timer {
 public:
  void record_ns(int64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<int64_t> total_ns_{0};
  std::atomic<int64_t> count_{0};
};

/// Latency distribution: a lock-free log-linear histogram (the HdrHistogram
/// scheme). A Timer gives totals and counts; the service layer also needs
/// tail percentiles (p50 / p99 request latency in the registry export and
/// the overload bench), which a total can't recover. Values below 16 get one
/// bucket each; every power of two above that is split into kSubBuckets
/// equal sub-buckets, so a bucket's width is at most 1/16 of its lower
/// bound and a reported percentile is at most 6.25% above the true sample.
/// percentile() reports the upper bound of the bucket containing the
/// requested rank, capped at max(), so estimates are conservative (never
/// under-report a tail). All updates are relaxed atomics; snapshots taken
/// after workers quiesce are exact.
class Histogram {
 public:
  void record(int64_t v) {
    if (v < 0) v = 0;
    buckets_[bucket_of(static_cast<uint64_t>(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    // Racy max: two writers may both read a stale max, but a CAS loop keeps
    // the final value correct.
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Upper bound of the bucket holding the nearest-rank `p`-quantile
  /// sample (rank ceil(p * count), at least 1), capped at max(). Edge cases
  /// are defined, not UB: an empty histogram returns 0 for every p, and p
  /// is clamped into [0, 1] (p <= 0 → the smallest recorded sample's bucket
  /// bound, p >= 1 → max(); NaN behaves as 0). p=0.5 → p50, p=0.99 → p99.
  int64_t percentile(double p) const;

 private:
  friend class Registry;
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  /// v < 16 → v; otherwise 16 buckets per bit_width(v) above 4, indexed by
  /// the 4 bits below the leading one.
  static size_t bucket_of(uint64_t v) {
    const int width = std::bit_width(v);
    if (width <= kSubBucketBits) return static_cast<size_t>(v);
    const int shift = width - kSubBucketBits - 1;
    return static_cast<size_t>((width - kSubBucketBits) * kSubBuckets) +
           ((v >> shift) & (kSubBuckets - 1));
  }
  /// Largest value that lands in bucket `b` (bucket_of's inverse).
  static uint64_t bucket_upper(size_t b);

  /// bit_width of a non-negative int64 is at most 63.
  std::array<std::atomic<int64_t>, (63 - kSubBucketBits + 1) * kSubBuckets>
      buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// RAII timer: measures from construction to destruction and records into
/// the named Timer — but only when obs::enabled() was true at construction,
/// so a disabled run never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer)
      : timer_(timer), start_ns_(timer ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (timer_) timer_->record_ns(now_ns() - start_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  int64_t start_ns_;
};

/// Owns every named metric. Lookups return stable pointers (std::map nodes
/// don't move), so call sites resolve a metric once and cache the pointer.
/// Lookup/reset/export serialize on a mutex; updates through a resolved
/// pointer stay lock-free, so concurrent workers may record while another
/// thread registers new names.
class Registry {
 public:
  Counter* counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return &counters_[name];
  }
  Gauge* gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return &gauges_[name];
  }
  Timer* timer(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return &timers_[name];
  }
  Histogram* histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return &histograms_[name];
  }

  /// Drop every metric (tests; bench sections). Must not race live updates:
  /// callers quiesce workers first (map nodes die here).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "timers": {name: {total_ns,
  /// count}}, "histograms": {name: {count, sum, p50, p99, max}}} with keys
  /// sorted (std::map iteration order). Zero-valued metrics are included —
  /// absence means "never registered". The histograms key is omitted while
  /// no histogram is registered, keeping pre-existing report bytes stable.
  Json to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-wide registry used by all instrumented subsystems.
Registry& registry();

/// Canonical labeled-metric name: `name{key=value}` — one string key per
/// (name, label) pair, so labeled series live in the same registry (and the
/// same sorted JSON export) as plain metrics while staying distinct per
/// label value. Use for low-cardinality dimensions only (method, workload,
/// outcome): every distinct value is a live registry entry.
std::string labeled(std::string_view name, std::string_view key,
                    std::string_view value);

/// Convenience: bump a named counter iff metrics are enabled. For hot loops
/// prefer resolving the Counter* once and guarding manually.
inline void count(const std::string& name, int64_t n = 1) {
  if (enabled()) registry().counter(name)->add(n);
}

/// Convenience: time a scope iff metrics are enabled. Usage:
///   auto t = obs::timed("synth.map_ns");
inline ScopedTimer timed(const std::string& name) {
  return ScopedTimer(enabled() ? registry().timer(name) : nullptr);
}

}  // namespace hlshc::obs
