// A small fixed-size thread pool plus a blocking parallel_for.
//
// OpenMP covers the dense kernels in linalg/; this pool exists for task-level
// parallelism that OpenMP pragmas express poorly: the embarrassingly parallel
// per-level bin fits of mrDMD and the per-group model updates of the
// engine's worker lanes (paper Sec. III-A.1).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace imrdmd {

/// Fixed-size worker pool with a FIFO queue.
///
/// A worker never waits on pool tasks: parallel_for below enforces that by
/// running its range inline when called on a worker of any pool, so nested
/// fan-out (lanes whose model fits spread their bins) cannot deadlock.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it finishes (or rethrows).
  std::future<void> submit(std::function<void()> task);

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool shared by library components. Lazily constructed and
/// intentionally never destroyed (a leaked singleton): joining the workers
/// during static destruction would race — or block exit behind — any
/// thread still using the pool at exit (e.g. a serve::AsyncSink worker or
/// an AssessorService tenant). Pools a caller owns (AssessorConfig::pool)
/// still drain and join normally in ~ThreadPool.
ThreadPool& global_pool();

/// Waits for every future, then rethrows the first captured exception (if
/// any). Use this instead of a get()-in-a-loop when the tasks reference
/// caller state: packaged_task futures do not block on destruction, so
/// rethrowing at the first failure would unwind the referenced stack while
/// later tasks are still queued or running.
void wait_all(std::vector<std::future<void>>& futures);

/// Runs fn(i) for i in [begin, end) across `pool` (or the global pool when
/// null), blocking until every chunk is done, then rethrows the first
/// exception. `grain` is the minimum indices per chunk; the range splits
/// into at most 4 x pool size chunks. On a worker thread of ANY pool, or
/// when one chunk covers the range, it runs inline in index order instead.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr, std::size_t grain = 1);

}  // namespace imrdmd
