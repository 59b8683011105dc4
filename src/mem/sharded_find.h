// The one sharded find of the sampled finders (copMEM, sparseMEM,
// essaMEM). Each finder supplies only its probe — the candidates one query
// sampling position yields — and find_sharded shards the probe range over
// `util::ShardedExecutor`, merges the shards' raw candidates, applies the
// invalid-base policy and returns the canonical MEM set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/finder.h"

namespace gm::mem {

/// Appends the raw candidates of probes [begin, end) to `out`. Called once
/// per shard, so the per-probe loop stays inside the finder and inlines.
using ProbeFn = std::function<void(std::size_t begin, std::size_t end,
                                   std::vector<Mem>& out)>;

/// Probes one shard must carry before the find splits off another, set
/// from sparseMEM and essaMEM, whose probes cost ~0.4-0.6 us. A pool round
/// trip costs ~4-7 us per extra shard. At L 30 (chrXc_s/chrXh_s, scale 4,
/// sparseness 4, 4-worker pool, two runs on a shared 4-core host) a 300 bp
/// query (~274 probes) in two shards read 0.64-1.03x the one-shard time of
/// sparseMEM and 0.76-1.00x of essaMEM, and four shards gained 1.7-2.6x
/// from 1.2 kbp on, so every read up to ~256 probes runs as one shard and
/// a second shard costs at most a few percent where it starts. For copMEM
/// the constant is knowingly too low: its probes are several times
/// cheaper, and a split copMEM find read 0.8-1.3x the one-shard time at
/// 1.2-2.4 kbp (CHANGES.md, FOUND on copMEM sharding).
inline constexpr std::size_t kProbesPerShard = 256;

/// min(max(1, threads), ceil(probes / kProbesPerShard)), and at least 1.
std::size_t shard_count(std::size_t probes, std::uint32_t threads);

/// Runs probes [0, probes) in shard_count(probes, opt.threads) contiguous
/// shards (sequentially when opt.sequential_shards; one shard runs on the
/// calling thread), concatenates the shards' candidates in shard order,
/// optionally drops the first raw candidate (the copMEM fuzz-oracle fault),
/// then clips invalid bases at opt.min_length and returns the sorted,
/// deduplicated set.
/// `modeled_seconds` receives the longest shard's wall time.
std::vector<Mem> find_sharded(const seq::Sequence& ref,
                              const seq::Sequence& query,
                              const FinderOptions& opt, std::size_t probes,
                              const ProbeFn& probe, double& modeled_seconds,
                              bool drop_first_candidate = false);

}  // namespace gm::mem
