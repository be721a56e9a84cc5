#include "par/queue.hpp"

#include <utility>

#include "base/check.hpp"
#include "obs/metrics.hpp"

namespace hlshc::par {

TaskQueue::TaskQueue(int workers, int capacity)
    : workers_(workers), capacity_(capacity) {
  HLSHC_CHECK(workers >= 1, "TaskQueue needs at least one worker, got "
                                << workers);
  HLSHC_CHECK(capacity >= 1, "TaskQueue needs capacity >= 1, got "
                                 << capacity);
  threads_.reserve(static_cast<size_t>(workers_));
  for (int w = 0; w < workers_; ++w)
    threads_.emplace_back([this] { worker_main(); });
}

TaskQueue::~TaskQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.clear();
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool TaskQueue::try_submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || static_cast<int>(queue_.size()) >= capacity_) {
      ++shed_;
      return false;
    }
    queue_.push_back(std::move(task));
    ++accepted_;
    publish_depth_locked();
  }
  cv_work_.notify_one();
  return true;
}

int TaskQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

// kept: test-observation hook: svc_test waits on it before counting runs.
void TaskQueue::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

int64_t TaskQueue::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

int64_t TaskQueue::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

void TaskQueue::worker_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_work_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (shutdown_ && queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    publish_depth_locked();
    lock.unlock();
    task();  // service layer guarantees noexcept semantics (catch-all inside)
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
}

void TaskQueue::publish_depth_locked() {
  if (obs::enabled())
    obs::registry()
        .gauge("par.queue.depth")
        ->set(static_cast<double>(queue_.size()));
}

}  // namespace hlshc::par
