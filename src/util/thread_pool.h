// A small fixed-size work-stealing-free thread pool.
//
// The pool is deliberately simple: a single mutex-protected deque feeding N
// workers. All parallel loops in this project batch work into O(threads)
// chunks before enqueuing, so queue contention is negligible and the simple
// design is the robust one (see parallel.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace gm::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows task exceptions.
  template <typename F>
  std::future<void> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Process-wide default pool, created on first use. Size precedence:
  /// configure_global(n) > GPUMEM_THREADS env var > hardware concurrency.
  /// Benchmarks that need τ *logical* workers on fewer cores use
  /// ShardedExecutor (parallel.h) instead of oversubscribing this pool.
  static ThreadPool& global();

  /// Fixes the global pool's size before first use (CLI --host-threads
  /// flags route here). Passing 0 defers to GPUMEM_THREADS / hardware
  /// concurrency. Throws std::logic_error if the global pool already exists
  /// with a different size — sizing must happen before any parallel work.
  static void configure_global(std::size_t threads);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace gm::util
