// Parallel building blocks: chunked parallel_for, prefix sums, and the
// ShardedExecutor used to report τ-thread timings faithfully on hosts with
// fewer than τ physical cores.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <numeric>
#include <vector>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace gm::util {

/// Runs fn(begin, end) over [first, last) split into ~`chunks` contiguous
/// ranges on the global thread pool. Blocks until all chunks finish.
/// Exceptions from chunks are rethrown (first one wins).
void parallel_for_chunked(std::size_t first, std::size_t last,
                          std::size_t chunks,
                          const std::function<void(std::size_t, std::size_t)>& fn);

/// Element-wise parallel for with automatic chunking (one chunk per worker).
template <typename Fn>
void parallel_for(std::size_t first, std::size_t last, Fn&& fn) {
  parallel_for_chunked(first, last, ThreadPool::global().size(),
                       [&fn](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) fn(i);
                       });
}

/// Exclusive prefix sum in place: out[i] = sum of in[0..i), returns total.
/// Single-threaded; the device-side parallel scan lives in simt/primitives.
template <typename T>
T exclusive_scan_inplace(std::vector<T>& v) {
  T running{};
  for (auto& x : v) {
    T next = running + x;
    x = running;
    running = next;
  }
  return running;
}

/// Per-shard timing report for a τ-way parallel section.
struct ShardReport {
  std::vector<double> shard_seconds;  ///< wall time of each shard body
  double wall_seconds = 0.0;          ///< actual elapsed wall time

  /// Modeled τ-core time: the longest shard. On a machine with >= τ idle
  /// cores this equals wall time (minus scheduling noise); on this project's
  /// 1-core container it is the documented stand-in for multicore runs
  /// (see DESIGN.md, hardware substitutions).
  double modeled_parallel_seconds() const {
    double mx = 0.0;
    for (double s : shard_seconds) mx = std::max(mx, s);
    return mx;
  }
};

/// Executes `shards` independent bodies and reports per-shard timings.
///
/// Policy:
///  * kConcurrent — one global-pool task per shard (true parallel execution).
///  * kSequential — run back-to-back on the calling thread; deterministic
///    and interference-free, used for timing studies on undersized hosts.
///  * kAuto — concurrent when the global pool has >= shards workers, else
///    sequential.
/// Under every policy a single shard runs on the calling thread (no pool
/// round trip); its time is still recorded in shard_seconds.
class ShardedExecutor {
 public:
  enum class Policy { kAuto, kSequential, kConcurrent };

  explicit ShardedExecutor(Policy policy = Policy::kAuto) : policy_(policy) {}

  ShardReport run(std::size_t shards,
                  const std::function<void(std::size_t)>& body) const;

 private:
  Policy policy_;
};

}  // namespace gm::util
