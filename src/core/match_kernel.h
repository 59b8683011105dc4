// The per-tile MEM extraction kernel — paper Section III-B.
//
// One device block per ℓtile × ℓblock strip; w rounds per block, each round
// processing the τ query seeds of one residue class (positions
// q0 + round + k·w). Per round: proactive load balancing (Algorithm 2,
// computed in-device with two block scans), exact-match triplet generation
// with seed-wise right extension, the conflict-free log-time combine
// (Algorithm 3), then expansion + in-block / out-block classification.
// The kernel runs in the simulator's phase form (simt::PhaseBlock): one loop
// over the thread ids per barrier-free region, with the barrier semantics
// and cost model of the coroutine form.
#pragma once

#include <cstdint>
#include <span>

#include "core/config.h"
#include "core/geometry.h"
#include "mem/mem.h"
#include "seq/sequence.h"
#include "simt/device.h"
#include "simt/executor.h"

namespace gm::core {

struct MatchParams {
  const seq::Sequence* ref = nullptr;
  const seq::Sequence* query = nullptr;
  std::span<const std::uint32_t> ptrs;
  std::span<const std::uint32_t> locs;
  Rect tile;
  std::uint32_t seed_len = 0;
  std::uint32_t w = 0;
  std::uint32_t min_len = 0;
  std::uint32_t round_capacity = 0;
  std::uint32_t block_width = 0;
  bool load_balance = true;
  bool combine = true;

  std::span<mem::Mem> scratch;  ///< grid × round_capacity round triplets
  std::span<mem::Mem> inblock;
  std::span<std::uint32_t> inblock_count;  ///< single counter
  std::span<mem::Mem> outblock;
  std::span<std::uint32_t> outblock_count;
  std::span<std::uint8_t> overflow;  ///< grid × w flags: round fell back
};

/// Runs block `block` of the match kernel and returns what it charged;
/// launch_match_kernel runs every block of the grid through it.
simt::BlockResult run_match_block(const simt::DeviceSpec& spec,
                                  std::uint32_t block, std::uint32_t threads,
                                  const MatchParams& params);

/// Launches the match kernel over `grid` blocks; returns modeled stats via
/// the device ledger. Counters may exceed buffer sizes (overflow); the
/// caller checks and retries with larger buffers.
void launch_match_kernel(simt::Device& dev, std::uint32_t grid,
                         std::uint32_t threads, const MatchParams& params);

/// Host-side re-execution of one (block, round) pair that overflowed the
/// round scratch — semantically identical output (chains expanded and
/// classified against the block rectangle), appended to the two lists.
void process_round_host(const MatchParams& params, std::uint32_t block,
                        std::uint32_t round, std::uint32_t threads,
                        std::vector<mem::Mem>& inblock_out,
                        std::vector<mem::Mem>& outblock_out);

}  // namespace gm::core
