// par::Pool — the repo's parallel execution layer: a chunked, steal-free
// thread pool for embarrassingly parallel loops.
//
// Every headline artifact (the Fig. 1 DSE scatter, Tables I/II, the fault
// campaigns) is produced by a loop whose iterations are independent: one
// fault site, one design point, one pragma/stage configuration per
// iteration. The pool parallelizes exactly that shape and nothing more:
//
//   * parallel_for(n, body) runs body(i) for every i in [0, n) across the
//     workers. Iterations are handed out as contiguous chunks from one
//     shared atomic cursor (steal-free: there are no per-worker deques to
//     steal from, so completion order is the only nondeterminism — and
//     callers write results into per-index slots, which makes the overall
//     result deterministic at any worker count);
//   * parallel_for_worker(n, body) additionally passes the worker id in
//     [0, jobs), which consumers use for worker-local state (the fault
//     campaign builds one simulation Engine per worker and reuses it
//     across that worker's sites);
//   * parallel_map(n, fn) collects fn(i) into a vector in input order.
//
// Worker count: explicit `jobs`, else the HLSHC_JOBS environment variable,
// else hardware_concurrency. jobs=1 is a strict single-threaded fallback —
// no threads are spawned and the loop runs inline on the caller, so tier-1
// determinism (and debuggability) is trivially preserved.
//
// The caller participates as worker 0; the pool spawns jobs-1 threads which
// park on a condition variable between loops. Exceptions thrown by any
// iteration stop the loop early (remaining chunks are drained unexecuted)
// and the first one is rethrown on the calling thread.
//
// Observability: when obs::enabled(), each parallel loop records per-worker
// metrics — par.worker.<k>.tasks (iterations executed), .busy_ns (time
// inside the body) and .wait_ns (time parked waiting for work) — and each
// chunk emits a trace span ("par.chunk", with worker/range args) on its
// worker's trace lane, so the Chrome trace shows the actual schedule.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace hlshc::par {

/// Hard ceiling on worker counts (absurd values are clamped here, not
/// rejected — 10000 workers is a typo for "lots", not a semantic request).
inline constexpr int kMaxJobs = 256;

/// Hard ceiling on simulation lane counts (sim::BatchSimulator packs this
/// many independent runs into one instruction-stream sweep; beyond it the
/// lane vectors outgrow the cache and batching stops paying).
inline constexpr int kMaxLanes = 64;

/// Lane count used when HLSHC_LANES does not say otherwise.
/// Fixed (not hardware-derived) so batched campaign results and bench
/// parameters are reproducible across hosts. 32 packs four AVX-512 (or
/// eight AVX2) vectors per instruction — wide enough to amortize dispatch,
/// measured fastest on the campaign benchmarks; lane retirement keeps
/// partially-drained batches from paying for the full width.
inline constexpr int kDefaultLanes = 32;

/// The one validator for user-provided worker counts (the HLSHC_JOBS
/// environment variable, hlshc_paper's --jobs flag, the service daemon's
/// --jobs flag). Accepts a positive decimal integer, clamps values above
/// kMaxJobs, and throws hlshc::Error naming `what` on anything else —
/// "0", "-2", "8cores" and "" are configuration mistakes that should fail
/// loudly, not silently fall back to some other worker count.
int parse_jobs(std::string_view text, std::string_view what);

/// Same validation contract for simulation lane counts (the HLSHC_LANES
/// environment variable): positive decimal, clamped at kMaxLanes, throws
/// hlshc::Error naming `what` otherwise.
int parse_lanes(std::string_view text, std::string_view what);

/// Default worker count: the HLSHC_JOBS environment variable when set
/// (validated through parse_jobs — a malformed value throws rather than
/// being ignored), otherwise std::thread::hardware_concurrency (at least
/// 1). Read on every call so tests can vary the environment.
int default_jobs();

/// Default simulation lane count: HLSHC_LANES when set (validated through
/// parse_lanes), otherwise kDefaultLanes. Read on every call so tests can
/// vary the environment.
int default_lanes();

class Pool {
 public:
  /// `jobs` <= 0 selects default_jobs(). Workers (jobs-1 threads; the
  /// caller is worker 0) start immediately and park between loops.
  explicit Pool(int jobs = 0);
  /// Joins the workers. No loop may be in flight.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int jobs() const { return jobs_; }

  /// Runs body(i) for every i in [0, n), sharded over the workers in
  /// contiguous chunks. Returns when every iteration completed (or the loop
  /// stopped on an exception, which is rethrown here). Not reentrant: one
  /// loop at a time per pool.
  void parallel_for(int64_t n, const std::function<void(int64_t)>& body);

  /// parallel_for with the executing worker's id in [0, jobs()) passed to
  /// the body, for worker-local caches (engines, scratch buffers).
  void parallel_for_worker(
      int64_t n, const std::function<void(int worker, int64_t i)>& body);

  /// fn(i) for every i in [0, n), results in input order. R must be
  /// default-constructible (results land in a pre-sized vector).
  template <typename R>
  std::vector<R> parallel_map(int64_t n,
                              const std::function<R(int64_t)>& fn) {
    std::vector<R> out(static_cast<size_t>(n));
    parallel_for(n, [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); });
    return out;
  }

 private:
  /// Per-worker accounting, flushed into the obs registry by the caller
  /// after the join barrier (so no worker touches the registry maps while
  /// another loop is being set up).
  struct WorkerStats {
    int64_t tasks = 0;    ///< iterations executed
    int64_t busy_ns = 0;  ///< wall time inside the body
    int64_t wait_ns = 0;  ///< wall time parked on the condition variable
  };

  void worker_main(int worker);
  /// Grab-and-run loop shared by workers and the caller.
  void run_chunks(int worker);
  void flush_stats(int64_t n);

  int jobs_ = 1;
  std::vector<std::thread> threads_;
  std::vector<WorkerStats> stats_;

  std::mutex mutex_;
  std::condition_variable cv_work_;  ///< signals a new loop / shutdown
  std::condition_variable cv_done_;  ///< signals all workers left the loop
  uint64_t epoch_ = 0;               ///< bumped per loop; workers wake on it
  bool shutdown_ = false;
  int workers_in_loop_ = 0;
  int64_t loop_start_ns_ = 0;  ///< epoch bump time, for queue-wait metrics
  /// The caller's request context at loop start; workers install it for the
  /// loop's duration so their spans/events join the caller's span tree.
  obs::TraceContext loop_trace_;

  // Current-loop state (valid while workers_in_loop_ > 0).
  const std::function<void(int, int64_t)>* body_ = nullptr;
  int64_t n_ = 0;
  int64_t chunk_ = 1;
  std::atomic<int64_t> cursor_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

}  // namespace hlshc::par
