// The one sharded find of the sampled finders (copMEM, sparseMEM,
// essaMEM). Each finder supplies only its probe — the candidates one query
// sampling position yields — and find_sharded shards the probe range over
// `util::ShardedExecutor`, merges the shards' raw candidates, applies the
// invalid-base policy and returns the canonical MEM set.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "mem/finder.h"

namespace gm::mem {

/// Appends the raw candidates of probes [begin, end) to `out`. Called once
/// per shard, so the per-probe loop stays inside the finder and inlines.
using ProbeFn = std::function<void(std::size_t begin, std::size_t end,
                                   std::vector<Mem>& out)>;

/// Runs probes [0, probes) in max(1, opt.threads) contiguous shards
/// (sequentially when opt.sequential_shards; one shard runs on the calling
/// thread), concatenates the shards' candidates in shard order, optionally
/// drops the first raw candidate (the copMEM fuzz-oracle fault), then clips
/// invalid bases at opt.min_length and returns the sorted, deduplicated set.
/// `modeled_seconds` receives the longest shard's wall time.
std::vector<Mem> find_sharded(const seq::Sequence& ref,
                              const seq::Sequence& query,
                              const FinderOptions& opt, std::size_t probes,
                              const ProbeFn& probe, double& modeled_seconds,
                              bool drop_first_candidate = false);

}  // namespace gm::mem
