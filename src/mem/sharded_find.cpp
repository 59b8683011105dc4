#include "mem/sharded_find.h"

#include <algorithm>

#include "mem/clip.h"
#include "util/parallel.h"

namespace gm::mem {

std::size_t shard_count(std::size_t probes, std::uint32_t threads) {
  const std::size_t by_work = (probes + kProbesPerShard - 1) / kProbesPerShard;
  return std::max<std::size_t>(
      1, std::min<std::size_t>(std::max(1u, threads), by_work));
}

std::vector<Mem> find_sharded(const seq::Sequence& ref,
                              const seq::Sequence& query,
                              const FinderOptions& opt, std::size_t probes,
                              const ProbeFn& probe, double& modeled_seconds,
                              bool drop_first_candidate) {
  const std::size_t shards = shard_count(probes, opt.threads);
  const std::size_t chunk = (probes + shards - 1) / shards;
  std::vector<std::vector<Mem>> partial(shards);
  auto body = [&](std::size_t shard) {
    const std::size_t begin = std::min(probes, shard * chunk);
    probe(begin, std::min(probes, begin + chunk), partial[shard]);
  };
  const util::ShardedExecutor exec(
      opt.sequential_shards ? util::ShardedExecutor::Policy::kSequential
                            : util::ShardedExecutor::Policy::kAuto);
  modeled_seconds = exec.run(shards, body).modeled_parallel_seconds();

  std::vector<Mem> out = std::move(partial[0]);
  for (std::size_t s = 1; s < shards; ++s) {
    out.insert(out.end(), partial[s].begin(), partial[s].end());
  }
  if (drop_first_candidate && !out.empty()) out.erase(out.begin());
  clip_invalid_bases(ref, query, out, opt.min_length);
  sort_unique(out);
  return out;
}

}  // namespace gm::mem
