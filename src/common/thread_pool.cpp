#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace imrdmd {

namespace {
/// Set for the lifetime of every pool's worker threads: parallel_for reads
/// it to run nested ranges inline instead of blocking a worker.
thread_local bool on_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IMRDMD_REQUIRE_ARG(!stopping_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  on_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured into the task's future
  }
}

ThreadPool& global_pool() {
  // Intentionally leaked: a plain function-local static would be destroyed
  // during static destruction, where its destructor joins the workers — and
  // any thread still submitting or running tasks at exit (an AsyncSink
  // worker, a serving tenant mid-drain) then races the teardown or blocks
  // exit behind an arbitrarily long task. The process reclaims everything
  // at exit anyway, and the static pointer keeps the allocation reachable,
  // so leak checkers stay quiet. Regression: tests/serve_test.cpp
  // ThreadPoolExit exits while a task is in flight.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, ThreadPool* pool,
                  std::size_t grain) {
  if (begin >= end) return;
  ThreadPool& workers = pool ? *pool : global_pool();
  const std::size_t count = end - begin;
  const std::size_t chunks =
      std::min(workers.size() * 4, std::max<std::size_t>(1, count / std::max<std::size_t>(grain, 1)));
  if (chunks <= 1 || on_pool_worker) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t step = (count + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * step;
    const std::size_t hi = std::min(end, lo + step);
    if (lo >= hi) break;
    futures.push_back(workers.submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  wait_all(futures);  // chunks hold &fn: drain them all before unwinding
}

void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr failure;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace imrdmd
