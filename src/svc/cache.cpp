#include "svc/cache.hpp"

#include <utility>

#include "netlist/dump.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace hlshc::svc {

std::string content_hash(std::string_view text) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

DesignCache::DesignCache(CacheConfig config) : config_(config) {}

std::string DesignCache::fingerprint(const netlist::Design& design,
                                     const tools::CompileOptions& options) {
  // The dump is one stable line per node, so structurally identical designs
  // fingerprint identically regardless of how they were built. Verify mode
  // does not change the output design, so it is deliberately not part of
  // the key; every option that does changes the fingerprint.
  std::string key = content_hash(netlist::dump_text(design));
  key += options.optimize ? ":opt" : ":raw";
  if (options.strength_reduce) key += ":sr";
  key += ":i" + std::to_string(options.max_iterations);
  return key;
}

CachedCompile DesignCache::get_or_compile(
    const netlist::Design& design, const tools::CompileOptions& options) {
  const std::string key = fingerprint(design, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.end(), lru_, it->second.lru);  // mark MRU
      ++hits_;
      publish_metrics_locked();
      if (obs::enabled()) {
        obs::count(obs::labeled("svc.cache.lookups", "result", "hit"));
        obs::log_event(obs::EventLevel::kDebug, "svc.cache.lookup",
                       {{"result", "hit"}, {"key", key}});
      }
      return {it->second.design, it->second.stats, key,
              it->second.result_hash, true};
    }
    ++misses_;
    publish_metrics_locked();
  }
  if (obs::enabled()) {
    obs::count(obs::labeled("svc.cache.lookups", "result", "miss"));
    obs::log_event(obs::EventLevel::kDebug, "svc.cache.lookup",
                   {{"result", "miss"}, {"key", key}});
  }

  // Miss: compile outside the lock (a slow compile must not block hits),
  // then warm every derived cache the entry will be read through — after
  // this the Design is never mutated again, so concurrent engine
  // construction over it is a pure read (the campaign's pre-warm contract).
  tools::CompiledDesign compiled = tools::compile(design, options);
  auto shared =
      std::make_shared<const netlist::Design>(std::move(compiled.design));
  const std::string dump = netlist::dump_text(*shared);
  netlist::ExecPlan::for_design(*shared);

  Entry entry;
  entry.design = shared;
  entry.stats = compiled.stats;
  entry.result_hash = content_hash(dump);
  // Size estimate: the canonical dump tracks node count and operand fanin,
  // which is what actually occupies memory (nodes + ExecPlan stream).
  entry.bytes = dump.size();

  CachedCompile out{shared, compiled.stats, key, entry.result_hash, false};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.find(key) == entries_.end()) {  // lost races insert first
      lru_.push_back(key);
      entry.lru = std::prev(lru_.end());
      bytes_ += entry.bytes;
      entries_.emplace(key, std::move(entry));
      evict_over_budget_locked();
    }
    publish_metrics_locked();
  }
  return out;
}

DesignCache::Stats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {hits_, misses_, evictions_, bytes_, entries_.size()};
}

void DesignCache::evict_over_budget_locked() {
  // Never evict the single remaining (just-inserted) entry: an oversized
  // design occupies the cache rather than thrashing it.
  while (entries_.size() > 1 &&
         (bytes_ > config_.max_bytes || entries_.size() > config_.max_entries)) {
    const std::string& victim = lru_.front();
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_front();
    ++evictions_;
    if (obs::enabled())
      obs::count(obs::labeled("svc.cache.lookups", "result", "evict"));
  }
}

void DesignCache::publish_metrics_locked() {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::registry();
  // Counters are monotone: publish deltas by setting gauges and re-adding
  // would double-count, so export absolute values through gauges and keep
  // the event counters incremental at the call sites that know the event.
  reg.gauge("svc.cache.bytes")->set(static_cast<double>(bytes_));
  reg.gauge("svc.cache.entries")->set(static_cast<double>(entries_.size()));
  reg.gauge("svc.cache.hits")->set(static_cast<double>(hits_));
  reg.gauge("svc.cache.misses")->set(static_cast<double>(misses_));
  reg.gauge("svc.cache.evictions")->set(static_cast<double>(evictions_));
}

}  // namespace hlshc::svc
