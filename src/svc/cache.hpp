// The synthesis service's caches: a content-addressed cache of compiled
// designs with two small memo tiers in front of it.
//
// The service's hot path is "compile this design with these options" — and
// identical requests are the common case for a daemon fronting many clients
// (the same design resubmitted, a campaign re-run, a DSE point revisited).
// Three tiers, each keyed on everything that can change its answer:
//
//   * Content tier (the source of truth). Key: a 64-bit FNV-1a hash of the
//     netlist's canonical text dump (netlist::dump_text, one stable line per
//     node) plus tools::canonical_options — every compile option except the
//     deadline, `narrow` and `verify` included, so a verified request is
//     never answered from an unverified compile. Two differently-named
//     requests for structurally identical designs share one entry, and any
//     structural or option difference misses. Value: the compiled Design.
//   * Request tier. Key: the registered design name, that name's
//     registration generation (bumped by every Server::register_design),
//     the canonical options and the scheduler knobs. Value: the compile
//     summary a `compile` response prints, plus the content-tier key. A hit
//     skips the frontend build, the dump and the hash. Registry builders are
//     pure functions of code compiled into the binary, so a builder source
//     change means a new process with empty memos; re-registering a name
//     bumps its generation.
//   * Evaluation tier. Key: the compiled design's content hash, the
//     workload and the evaluation options a request can set. Value: the
//     DesignEvaluation without its pass stats. A hit skips the compile, the
//     simulation and synthesis.
//
// A content hit returns a shared_ptr<const Design> whose derived caches
// (validation, topo order, the compiled-engine ExecPlan) were warmed once at
// insertion — after that, any number of worker threads can build engines
// over the entry concurrently without mutating it (the same pre-warm
// contract the parallel fault campaign relies on).
//
// Bounded by construction: the content tier by a byte budget (sum of
// per-entry size estimates) and an entry budget, the memo tiers by a fixed
// entry count (kMemoEntries each, under 2 MB together); all evict the
// least recently used entry at insert time. The newest content entry is
// never evicted by its own insertion — a single oversized design simply
// occupies the whole tier until something newer lands. Only successful
// results are stored. Hits (any tier), misses, evictions and occupancy are
// exported as svc.cache.* metrics.
//
// Thread-safe. Lookups and insertions take one mutex; compiles and
// evaluations run outside it, so a slow miss never blocks hits on other
// keys. Two threads racing on the same missing key may both compile; the
// second insert is dropped in favour of the first (counted as its own miss).
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/evaluate.hpp"
#include "netlist/ir.hpp"
#include "netlist/passes.hpp"
#include "synth/schedule.hpp"
#include "tools/compile.hpp"

namespace hlshc::svc {

/// 64-bit FNV-1a of `text` as a 16-hex-digit string.
std::string content_hash(std::string_view text);

/// String-keyed map ordered by use: find() and insert() make an entry the
/// most recently used, and oldest() is the eviction candidate. Not
/// thread-safe; DesignCache guards its tiers with one mutex.
template <typename V>
class LruMap {
 public:
  /// The value under `key`, now most recently used; nullptr when absent.
  V* find(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.end(), order_, it->second);
    return &it->second->second;
  }
  /// Inserts `value` unless `key` is present (the earlier entry wins).
  bool insert(std::string key, V value) {
    if (index_.count(key)) return false;
    order_.emplace_back(std::move(key), std::move(value));
    index_.emplace(order_.back().first, std::prev(order_.end()));
    return true;
  }
  const V& oldest() const { return order_.front().second; }
  void pop_oldest() {
    index_.erase(order_.front().first);
    order_.pop_front();
  }
  size_t size() const { return order_.size(); }

 private:
  using Order = std::list<std::pair<std::string, V>>;
  Order order_;  ///< front = least recently used
  /// Views into the keys held by order_'s nodes, which never move.
  std::unordered_map<std::string_view, typename Order::iterator> index_;
};

struct CacheConfig {
  size_t max_bytes = 8u << 20;  ///< content tier: sum of entry size estimates
  size_t max_entries = 64;      ///< content tier: entry budget
};

struct CachedCompile {
  std::shared_ptr<const netlist::Design> design;  ///< the compiled design
  netlist::PassStats stats;       ///< pass breakdown of the original compile
  std::string key;                ///< cache key (input hash + options)
  std::string result_hash;        ///< content hash of the compiled design
  bool hit = false;
};

/// What a `compile` response reports, kept by the request tier.
struct CompileSummary {
  std::string design;        ///< name of the built (and scheduled) design
  std::string key;           ///< content-tier key
  std::string content_hash;  ///< content hash of the compiled design
  int64_t node_count = 0;
  int64_t iterations = 0;
  int64_t nodes_before = 0;
  int64_t nodes_after = 0;
  int64_t latency = 0;        ///< scheduler latency (stages > 0)
  int64_t pipeline_regs = 0;  ///< scheduler register bits (stages > 0)
};

/// The input a request-tier miss compiles: the built design, scheduled when
/// the request asked for stages.
struct BuiltDesign {
  netlist::Design design;
  int64_t latency = 0;
  int64_t pipeline_regs = 0;
};

/// How a compile-needing request was answered.
struct ResolvedCompile {
  CompileSummary summary;
  /// The compiled design; null after a request-tier hit that did not ask
  /// for it.
  std::shared_ptr<const netlist::Design> design;
  bool hit = false;  ///< answered without running tools::compile
};

/// An evaluation-tier hit.
struct EvaluationHit {
  std::string design;  ///< the compiled design's name
  core::DesignEvaluation evaluation;
};

class DesignCache {
 public:
  /// Entries per memo tier. A request-tier entry takes ~0.65 KB of heap and
  /// an evaluation-tier entry ~0.42 KB (measured, glibc x86-64), so both
  /// tiers full hold ~1.6 MB.
  static constexpr size_t kMemoEntries = 1536;

  explicit DesignCache(CacheConfig config = {});

  /// The content-tier key for (design, options): input content hash plus
  /// tools::canonical_options.
  static std::string fingerprint(const netlist::Design& design,
                                 const tools::CompileOptions& options);

  /// The request-tier key: registered design name, its registration
  /// generation, the canonical options and the scheduler knobs.
  static std::string request_key(std::string_view design, uint64_t generation,
                                 const tools::CompileOptions& options,
                                 const synth::ScheduleOptions& schedule);

  /// Returns the cached compile for (design, options), running
  /// tools::compile and warming the entry's derived caches on a miss.
  /// Propagates whatever the compile throws (nothing is inserted then).
  CachedCompile get_or_compile(const netlist::Design& design,
                               const tools::CompileOptions& options);

  /// Answers a compile-needing request: from the request tier when it holds
  /// `request_key` (plus the content tier when `need_design`), else by
  /// running `build` and get_or_compile, and remembering the summary. Counts
  /// exactly one hit or miss. Propagates whatever `build` or the compile
  /// throws (nothing is stored then).
  ResolvedCompile resolve(const std::string& request_key, bool need_design,
                          const std::function<BuiltDesign()>& build,
                          const tools::CompileOptions& options);

  /// The evaluation an earlier request stored for the design `request_key`
  /// compiled to, measured against `workload` with `options`; counted as a
  /// hit when found. Counts nothing on a miss: the resolve() that follows
  /// does.
  std::optional<EvaluationHit> find_evaluation(
      const std::string& request_key, const std::string& workload,
      const core::EvaluateOptions& options);
  /// Stores a successful evaluation of the design with `result_hash` (its
  /// pass stats are dropped).
  void put_evaluation(const std::string& result_hash,
                      const std::string& workload,
                      const core::EvaluateOptions& options,
                      core::DesignEvaluation evaluation);

  struct TierStats {
    int64_t hits = 0;
    size_t entries = 0;
  };
  struct Stats {
    int64_t hits = 0;    ///< lookups answered without a compile, any tier
    int64_t misses = 0;  ///< lookups that ran tools::compile
    int64_t evictions = 0;  ///< content tier
    size_t bytes = 0;    ///< content tier occupancy (size estimates)
    size_t entries = 0;  ///< content tier
    TierStats request;     ///< request tier (its hits are in `hits`)
    TierStats evaluation;  ///< evaluation tier (its hits are in `hits`)
  };
  Stats stats() const;

  const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const netlist::Design> design;
    netlist::PassStats stats;
    std::string result_hash;
    size_t bytes = 0;
  };

  void evict_over_budget_locked();
  void publish_metrics_locked();

  CacheConfig config_;
  mutable std::mutex mutex_;
  LruMap<Entry> entries_;
  LruMap<CompileSummary> requests_;
  LruMap<core::DesignEvaluation> evaluations_;
  size_t bytes_ = 0;
  int64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  int64_t request_hits_ = 0, evaluation_hits_ = 0;
};

}  // namespace hlshc::svc
