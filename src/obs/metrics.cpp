#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace hlshc::obs {

namespace {
bool g_enabled = false;
}  // namespace

bool enabled() { return g_enabled; }
void set_enabled(bool on) { g_enabled = on; }

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Histogram::bucket_upper(size_t b) {
  if (b < kSubBuckets) return b;
  const int width = static_cast<int>(b / kSubBuckets) + kSubBucketBits;
  const int shift = width - kSubBucketBits - 1;
  const uint64_t sub = b % kSubBuckets;
  return ((kSubBuckets + sub + 1) << shift) - 1;
}

int64_t Histogram::percentile(double p) const {
  const int64_t n = count();
  if (n <= 0) return 0;
  // Clamp into [0, 1]; the negated comparison routes NaN to 0 instead of
  // feeding it into the int cast below (which would be UB).
  if (!(p >= 0.0)) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Nearest rank of the requested sample, 1-based; walk buckets to find
  // it and report that bucket's inclusive upper bound.
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  int64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank)
      return static_cast<int64_t>(
          std::min<uint64_t>(bucket_upper(b), static_cast<uint64_t>(max())));
  }
  return max();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  timers_.clear();
  histograms_.clear();
}

Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json counters = Json::object();
  for (const auto& [name, c] : counters_)
    counters.set(name, Json::number(c.value()));

  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, Json::number(g.value()));

  Json timers = Json::object();
  for (const auto& [name, t] : timers_) {
    Json entry = Json::object();
    entry.set("total_ns", Json::number(t.total_ns()));
    entry.set("count", Json::number(t.count()));
    timers.set(name, std::move(entry));
  }

  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("timers", std::move(timers));
  if (!histograms_.empty()) {
    Json histograms = Json::object();
    for (const auto& [name, h] : histograms_) {
      Json entry = Json::object();
      entry.set("count", Json::number(h.count()));
      entry.set("sum", Json::number(h.sum()));
      entry.set("p50", Json::number(h.percentile(0.5)));
      entry.set("p99", Json::number(h.percentile(0.99)));
      entry.set("max", Json::number(h.max()));
      histograms.set(name, std::move(entry));
    }
    out.set("histograms", std::move(histograms));
  }
  return out;
}

std::string labeled(std::string_view name, std::string_view key,
                    std::string_view value) {
  std::string out;
  out.reserve(name.size() + key.size() + value.size() + 3);
  out.append(name).push_back('{');
  out.append(key).push_back('=');
  out.append(value).push_back('}');
  return out;
}

std::string labeled(std::string_view name, std::string_view key1,
                    std::string_view value1, std::string_view key2,
                    std::string_view value2) {
  std::string out;
  out.reserve(name.size() + key1.size() + value1.size() + key2.size() +
              value2.size() + 4);
  out.append(name).push_back('{');
  out.append(key1).push_back('=');
  out.append(value1).push_back(',');
  out.append(key2).push_back('=');
  out.append(value2).push_back('}');
  return out;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace hlshc::obs
