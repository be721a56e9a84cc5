// par::TaskQueue — a bounded task queue with dedicated worker threads: the
// admission-control substrate of the synthesis service.
//
// The Pool (pool.hpp) parallelizes one loop at a time and blocks the caller;
// a service needs the opposite shape — callers that never block, work that
// queues, and a hard bound on how much may queue. TaskQueue provides exactly
// that and nothing more:
//
//   * try_submit(task) enqueues when the backlog is below capacity and
//     returns false otherwise — the caller decides what shedding means
//     (the service turns it into a structured `overloaded` response with a
//     retry-after hint). Submission never blocks and never allocates
//     unboundedly: the queue cannot grow past its capacity.
//   * `workers` dedicated threads pop tasks FIFO. Tasks must not throw —
//     the service wraps every handler in its own catch-all; a task that
//     does throw anyway terminates via std::terminate by design (a missing
//     catch-all in the service layer is a bug, not a runtime condition).
//   * depth() is the current backlog (queued, not yet started), exported as
//     the `par.queue.depth` gauge whenever it changes so overload episodes
//     are visible in every metrics snapshot.
//   * drain() blocks until the queue is empty AND no task is executing.
//
// The destructor cancels pending tasks, waits for in-flight ones, and joins
// the workers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hlshc::par {

class TaskQueue {
 public:
  /// `workers` >= 1 threads, `capacity` >= 1 maximum backlog.
  TaskQueue(int workers, int capacity);
  /// Cancels pending tasks, waits for in-flight ones, joins the workers.
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  int workers() const { return workers_; }
  int capacity() const { return capacity_; }

  /// Enqueues `task` unless the backlog is at capacity; false = shed (the
  /// task was not and will not be run). Thread-safe, non-blocking.
  bool try_submit(std::function<void()> task);

  /// Tasks queued but not yet started.
  int depth() const;

  /// Blocks until the queue is empty and every worker is idle.
  void drain();

  /// Total tasks ever accepted / shed by try_submit (monotonic).
  int64_t accepted() const;
  int64_t shed() const;

 private:
  void worker_main();
  void publish_depth_locked();

  int workers_ = 1;
  int capacity_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  ///< task available / shutdown
  std::condition_variable cv_idle_;  ///< queue empty and workers idle
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;  ///< tasks currently executing
  bool shutdown_ = false;
  int64_t accepted_ = 0;
  int64_t shed_ = 0;
};

}  // namespace hlshc::par
