#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace bundlemine {

/// One ParallelFor call, living on its caller's stack. `next` is shared
/// lock-free by the participants; the other mutable fields are touched only
/// under the pool's mu_.
struct ThreadPool::Job {
  const std::function<void(std::size_t, int)>* fn = nullptr;
  std::size_t n = 0;
  int width = 0;
  std::atomic<std::size_t> next{0};
  int slots_taken = 1;  ///< Slot 0 belongs to the caller.
  int running = 0;      ///< Workers that joined and have not yet left.
  std::exception_ptr error;  ///< First exception thrown by any participant.

  bool exhausted() const { return next.load(std::memory_order_relaxed) >= n; }

  /// Runs indices until none are left; returns what `fn` threw, if anything,
  /// after stopping the hand-out so the other participants wind down.
  std::exception_ptr Run(int slot) {
    try {
      for (std::size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        (*fn)(i, slot);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);
      return std::current_exception();
    }
    return nullptr;
  }
};

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: parked workers must never race static destruction.
  static ThreadPool* const pool = new ThreadPool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())) - 1);
  return *pool;
}

ThreadPool::ThreadPool(int num_workers) : num_workers_(num_workers) {}

void ThreadPool::WorkerLoop() {
  while (true) {
    Job* job = nullptr;
    int slot = 0;
    {
      MutexLock lock(mu_);
      // Jobs with no indices left are dropped; their callers finish alone.
      while (open_jobs_.empty() || open_jobs_.front()->exhausted()) {
        if (open_jobs_.empty()) {
          work_cv_.Wait(mu_);
        } else {
          open_jobs_.erase(open_jobs_.begin());
        }
      }
      job = open_jobs_.front();
      slot = job->slots_taken++;
      if (job->slots_taken == job->width) {
        open_jobs_.erase(open_jobs_.begin());
      }
      ++job->running;
    }
    std::exception_ptr error = job->Run(slot);
    MutexLock lock(mu_);
    if (error && !job->error) job->error = error;
    // Notified under the lock: the caller may return (destroying `job`) as
    // soon as it observes running == 0.
    if (--job->running == 0) done_cv_.NotifyAll();
  }
}

void ThreadPool::ParallelFor(std::size_t n, int width,
                             const std::function<void(std::size_t, int)>& fn) {
  // More slots than indices or than threads could ever fill buy nothing.
  const std::size_t slots = std::min<std::size_t>(
      {n, static_cast<std::size_t>(std::max(width, 1)),
       static_cast<std::size_t>(num_workers_) + 1});
  if (slots <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  job.width = static_cast<int>(slots);
  {
    MutexLock lock(mu_);
    while (workers_.size() < static_cast<std::size_t>(num_workers_)) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    open_jobs_.push_back(&job);
  }
  for (std::size_t i = 1; i < slots; ++i) work_cv_.NotifyOne();

  std::exception_ptr error = job.Run(0);
  {
    // Joined workers hold a pointer to `job`: wait them out even when the
    // caller's share threw.
    MutexLock lock(mu_);
    auto it = std::find(open_jobs_.begin(), open_jobs_.end(), &job);
    if (it != open_jobs_.end()) open_jobs_.erase(it);
    while (job.running != 0) done_cv_.Wait(mu_);
    if (!error) error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace bundlemine
