#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// A small fixed-size thread pool for fanning independent single-threaded
/// simulations across cores.
///
/// Each simulation is completely self-contained (its own Scheduler, Network,
/// Rng, metrics registry), so the only shared state between workers is the task
/// queue itself; results land in caller-owned slots indexed by task, which
/// makes the parallel output byte-identical to a sequential run regardless
/// of completion order.

namespace ecfd::runner {

class ThreadPool {
 public:
  /// Starts \p threads workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Default worker count: hardware_concurrency, at least 1.
  static unsigned default_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::vector<std::function<void()>> tasks_;
  std::size_t in_flight_{0};
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for every i in [0, count) on \p threads workers and waits
/// for completion. With threads == 1 this degenerates to a plain loop on
/// the calling thread (no pool is created).
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ecfd::runner
