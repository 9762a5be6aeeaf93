// The process-wide fork-join thread pool.
//
// The solver work-loops are bulk-synchronous: each round produces a batch of
// independent pricing evaluations whose results must be gathered in a fixed
// order. ParallelFor hands out indices through a per-job atomic counter
// (dynamic load balancing — candidate costs vary wildly with audience size)
// while the caller writes results into pre-sized slots indexed by `index`, so
// the gathered output is independent of thread scheduling and bit-identical
// to a serial run.
//
// One pool serves the whole process: sweep cells, batch requests and the
// candidate evaluation inside each solve all submit jobs to it, concurrently
// and nested (a job body may itself call ParallelFor). Every job has its own
// index and slot counters, its caller always takes part, and idle workers
// join up to the job's width — so concurrent requests share the cores
// instead of queueing for the pool, and the total thread count stays at the
// worker count plus the callers.

#ifndef BUNDLEMINE_UTIL_THREAD_POOL_H_
#define BUNDLEMINE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bundlemine {

/// Worker threads executing concurrent fork-join jobs. The only instance is
/// Shared(); its hardware_concurrency() − 1 workers start on the first job
/// wider than one.
class ThreadPool {
 public:
  /// The process-wide pool. Never destroyed, so jobs may run until exit.
  static ThreadPool& Shared();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(index, slot) for every index in [0, n) and returns when all are
  /// done. The calling thread takes part as slot 0 and at most `width` − 1
  /// idle workers join with slots 1, 2, ..., so `slot` < max(width, 1)
  /// always holds and is stable per thread within the call — callers use it
  /// to index per-thread workspaces. `width` <= 1 is a plain loop on the
  /// calling thread. `fn` must be safe to invoke concurrently for distinct
  /// indices; it may itself call ParallelFor. If `fn` throws on any thread,
  /// the remaining indices are skipped and the first exception is rethrown
  /// here once every participant has left the job.
  void ParallelFor(std::size_t n, int width,
                   const std::function<void(std::size_t index, int slot)>& fn)
      EXCLUDES(mu_);

 private:
  struct Job;

  explicit ThreadPool(int num_workers);

  void WorkerLoop() EXCLUDES(mu_);

  const int num_workers_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
  /// Jobs with a free slot, oldest first; workers join the front one.
  std::vector<Job*> open_jobs_ GUARDED_BY(mu_);
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_UTIL_THREAD_POOL_H_
