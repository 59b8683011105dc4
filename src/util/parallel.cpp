#include "util/parallel.h"

#include <exception>

namespace gm::util {

void parallel_for_chunked(
    std::size_t first, std::size_t last, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (first >= last) return;
  const std::size_t n = last - first;
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  if (chunks == 1) {
    fn(first, last);
    return;
  }
  const std::size_t step = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t b = first + c * step;
    if (b >= last) break;
    const std::size_t e = std::min(last, b + step);
    futures.push_back(ThreadPool::global().submit([&fn, b, e] { fn(b, e); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ShardReport ShardedExecutor::run(
    std::size_t shards, const std::function<void(std::size_t)>& body) const {
  ShardReport report;
  report.shard_seconds.assign(shards, 0.0);
  Timer wall;
  const bool concurrent =
      policy_ == Policy::kConcurrent ||
      (policy_ == Policy::kAuto && ThreadPool::global().size() >= shards);
  // One pool task per shard; a single chunk (one shard, or kSequential) runs
  // back to back on the calling thread.
  parallel_for_chunked(0, shards, concurrent ? shards : 1,
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t s = b; s < e; ++s) {
                           Timer t;
                           body(s);
                           report.shard_seconds[s] = t.seconds();
                         }
                       });
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace gm::util
