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

namespace {

/// The evaluation-tier key: the compiled design's content hash, the
/// workload and the evaluation options.
std::string evaluation_key(const std::string& result_hash,
                           const std::string& workload,
                           const core::EvaluateOptions& options) {
  // Adding a field breaks this binding until the field gets its place in
  // the key (or a reason to stay out of it).
  const auto& [matrices, realistic_inputs, seed, max_cycles, synth,
               deadline] = options;
  (void)synth;     // the service always measures with the paper's defaults
  (void)deadline;  // a wall budget never changes a completed evaluation
  return result_hash + ' ' + workload + " matrices=" +
         std::to_string(matrices) +
         " realistic_inputs=" + std::to_string(realistic_inputs) +
         " seed=" + std::to_string(seed) +
         " max_cycles=" + std::to_string(max_cycles);
}

/// Counts and logs one lookup outcome when observability is on.
void note_lookup(const char* result, const std::string& key) {
  if (!obs::enabled()) return;
  obs::count(obs::labeled("svc.cache.lookups", "result", result));
  obs::log_event(obs::EventLevel::kDebug, "svc.cache.lookup",
                 {{"result", result}, {"key", key}});
}

/// Evicts least recently used memo entries beyond kMemoEntries.
template <typename V>
void trim_memo(LruMap<V>& tier) {
  while (tier.size() > DesignCache::kMemoEntries) tier.pop_oldest();
}

}  // namespace

DesignCache::DesignCache(CacheConfig config) : config_(config) {}

std::string DesignCache::fingerprint(const netlist::Design& design,
                                     const tools::CompileOptions& options) {
  // The dump is one stable line per node, so structurally identical designs
  // fingerprint identically regardless of how they were built.
  return content_hash(netlist::dump_text(design)) + ' ' +
         tools::canonical_options(options);
}

std::string DesignCache::request_key(std::string_view design,
                                     uint64_t generation,
                                     const tools::CompileOptions& options,
                                     const synth::ScheduleOptions& schedule) {
  const auto& [stages, objective, retime, delay_model] = schedule;
  (void)delay_model;  // the service always schedules with the default
  std::string key(design);
  key += " gen=" + std::to_string(generation) + ' ' +
         tools::canonical_options(options) +
         " stages=" + std::to_string(stages) +
         " objective=" + synth::schedule_objective_name(objective) +
         " retime=" + std::to_string(retime);
  return key;
}

CachedCompile DesignCache::get_or_compile(
    const netlist::Design& design, const tools::CompileOptions& options) {
  const std::string key = fingerprint(design, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const Entry* e = entries_.find(key)) {
      ++hits_;
      publish_metrics_locked();
      note_lookup("hit", key);
      return {e->design, e->stats, key, e->result_hash, true};
    }
    ++misses_;
    publish_metrics_locked();
  }
  note_lookup("miss", key);

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
    const size_t bytes = entry.bytes;
    if (entries_.insert(key, std::move(entry))) {  // lost races insert first
      bytes_ += bytes;
      evict_over_budget_locked();
    }
    publish_metrics_locked();
  }
  return out;
}

ResolvedCompile DesignCache::resolve(const std::string& request_key,
                                     bool need_design,
                                     const std::function<BuiltDesign()>& build,
                                     const tools::CompileOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const CompileSummary* s = requests_.find(request_key)) {
      std::shared_ptr<const netlist::Design> design;
      if (need_design)
        if (const Entry* e = entries_.find(s->key)) design = e->design;
      if (!need_design || design) {
        ++hits_;
        ++request_hits_;
        publish_metrics_locked();
        note_lookup("request_hit", request_key);
        return {*s, std::move(design), true};
      }
      // The content entry was evicted: rebuild below.
    }
  }

  BuiltDesign built = build();
  const CachedCompile compiled = get_or_compile(built.design, options);
  CompileSummary summary;
  summary.design = built.design.name();
  summary.key = compiled.key;
  summary.content_hash = compiled.result_hash;
  summary.node_count = static_cast<int64_t>(compiled.design->node_count());
  summary.iterations = compiled.stats.iterations;
  summary.nodes_before = static_cast<int64_t>(compiled.stats.nodes_before());
  summary.nodes_after = static_cast<int64_t>(compiled.stats.nodes_after());
  summary.latency = built.latency;
  summary.pipeline_regs = built.pipeline_regs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    requests_.insert(request_key, summary);
    trim_memo(requests_);
    publish_metrics_locked();
  }
  return {std::move(summary), compiled.design, compiled.hit};
}

std::optional<EvaluationHit> DesignCache::find_evaluation(
    const std::string& request_key, const std::string& workload,
    const core::EvaluateOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const CompileSummary* s = requests_.find(request_key);
  if (!s) return std::nullopt;
  const core::DesignEvaluation* ev =
      evaluations_.find(evaluation_key(s->content_hash, workload, options));
  if (!ev) return std::nullopt;
  ++hits_;
  ++evaluation_hits_;
  publish_metrics_locked();
  note_lookup("evaluation_hit", request_key);
  return EvaluationHit{s->design, *ev};
}

void DesignCache::put_evaluation(const std::string& result_hash,
                                 const std::string& workload,
                                 const core::EvaluateOptions& options,
                                 core::DesignEvaluation evaluation) {
  evaluation.pipeline = {};
  const std::string key = evaluation_key(result_hash, workload, options);
  std::lock_guard<std::mutex> lock(mutex_);
  evaluations_.insert(key, std::move(evaluation));
  trim_memo(evaluations_);
  publish_metrics_locked();
}

DesignCache::Stats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {hits_,
          misses_,
          evictions_,
          bytes_,
          entries_.size(),
          {request_hits_, requests_.size()},
          {evaluation_hits_, evaluations_.size()}};
}

void DesignCache::evict_over_budget_locked() {
  // Never evict the single remaining (just-inserted) entry: an oversized
  // design occupies the cache rather than thrashing it.
  while (entries_.size() > 1 &&
         (bytes_ > config_.max_bytes || entries_.size() > config_.max_entries)) {
    bytes_ -= entries_.oldest().bytes;
    entries_.pop_oldest();
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
  reg.gauge("svc.cache.request.entries")
      ->set(static_cast<double>(requests_.size()));
  reg.gauge("svc.cache.request.hits")
      ->set(static_cast<double>(request_hits_));
  reg.gauge("svc.cache.evaluation.entries")
      ->set(static_cast<double>(evaluations_.size()));
  reg.gauge("svc.cache.evaluation.hits")
      ->set(static_cast<double>(evaluation_hits_));
}

}  // namespace hlshc::svc
