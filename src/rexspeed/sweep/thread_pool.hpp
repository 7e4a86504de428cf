#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rexspeed::sweep {

/// Fixed-size worker pool for embarrassingly parallel sweeps.
///
/// Design notes: tasks are type-erased `std::function<void()>`; completion
/// is tracked with a counter + condition variable rather than futures so
/// `wait_idle()` can cheaply fence an arbitrary batch. Exceptions escaping
/// a task are considered programmer error and terminate (tasks in this
/// library validate inputs before submission).
class ThreadPool {
 public:
  /// `threads == 0` uses std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void wait_idle();

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs `fn(i)` for i in [0, count) across the pool and waits for all.
/// With a null pool the loop runs inline (serial fallback).
void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Wraps a pool into the construction-parallelizer hook shape the cache
/// builders take (core::ParallelFor): a null or
/// single-threaded pool yields an empty hook — the builder's serial
/// path — so every call site applies the same guard.
[[nodiscard]] std::function<void(std::size_t,
                                 const std::function<void(std::size_t)>&)>
make_parallel_build(ThreadPool* pool);

}  // namespace rexspeed::sweep
