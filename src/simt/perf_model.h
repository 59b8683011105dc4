// The documented device-time model (see DESIGN.md, hardware substitutions).
//
// Per phase (the code between two barriers) of one block:
//
//   compute  = sum over warps of max-over-lanes(alu) / warp_ipc
//              -- lanes run in lock step, so a warp pays its slowest lane;
//                 warp_ipc = cores_per_sm / warp_size warps issue per cycle.
//   shared   = sum over warps of max-over-lanes(shared_ops) * c_shared
//   atomics  = total atomics * c_atomic  -- serialized worst case.
//   barrier  = c_barrier.
//
//   latency  = sum over warps of max-over-lanes(txns) * c_txn
//              -- a lane's dependent random accesses serialize; this is the
//                 term the load-balancing heuristic (Fig. 7) reduces.
//
//   phase_cycles = compute + shared + latency + atomics + barrier
//
// Global-memory traffic is a *device-wide* resource, so it is charged at
// launch level rather than per phase: kernels account bytes (coalesced) or
// 128-byte transactions (random access, ctx.gmem_txn), and the launch adds
// total_bytes / mem_bandwidth.
//
// The max-over-lanes term is what makes the load-balancing experiment
// (paper Fig. 7) meaningful in simulation: imbalanced work raises the phase
// maximum even though total work is unchanged.
//
// Per launch:
//
//   resident  = sm_count * blocks_per_sm
//   seconds   = max(sum(block_cycles) / resident, max(block_cycles)) / clock
//               + total_bytes / mem_bandwidth + kernel_launch_seconds
//
// i.e. blocks execute in waves; a grid shorter than one wave is bounded by
// its slowest block; DRAM is shared by the whole device.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "simt/device.h"
#include "simt/kernel.h"

namespace gm::simt {

/// The five cost-model terms of one or more phases, kept separate so
/// observability can show *where* modeled cycles go (the latency term is
/// what the paper's Fig. 7 load balancing reduces).
struct CycleBreakdown {
  double compute = 0.0;
  double shared = 0.0;
  double latency = 0.0;
  double atomics = 0.0;
  double barrier = 0.0;

  double total() const {
    return compute + shared + latency + atomics + barrier;
  }
  CycleBreakdown& operator+=(const CycleBreakdown& o) {
    compute += o.compute;
    shared += o.shared;
    latency += o.latency;
    atomics += o.atomics;
    barrier += o.barrier;
    return *this;
  }
};

/// One-pass fold of a phase's cost terms. add() each thread that ran in the
/// phase, in any order; take_terms() then sums the per-warp maxima in warp
/// order. Threads that did not run add nothing, exactly as lanes with zero
/// counters add 0.0, so the terms are bit-identical to a walk over every
/// lane of the block.
class PhaseFold {
 public:
  /// Sizes the fold for `block_dim` threads in warps of `warp_size` and
  /// clears it.
  void reset(std::uint32_t block_dim, std::uint32_t warp_size);

  void add(std::uint32_t tid, const PhaseCounters& c) noexcept {
    WarpMax& w = warps_[tid / warp_size_];
    w.alu = std::max(w.alu, c.alu);
    w.shared_ops = std::max(w.shared_ops, c.shared_ops);
    w.txns = std::max(w.txns, c.txns);
    atomics_ += c.atomics;
  }

  /// Adds `u` to every one of the block's `block_dim` lanes: each warp's
  /// maxima rise by u (every lane carries it) and the atomics by
  /// block_dim·u, bit-identical to add()ing u into each lane's counters.
  void add_uniform(const PhaseCounters& u, std::uint32_t block_dim) noexcept;

  /// The phase's per-term cycles; clears the fold for the next phase.
  CycleBreakdown take_terms(const DeviceSpec& spec) noexcept;

 private:
  struct WarpMax {
    std::uint64_t alu = 0, shared_ops = 0, txns = 0;
  };
  std::vector<WarpMax> warps_;
  std::uint32_t warp_size_ = 1;
  std::uint64_t atomics_ = 0;
};

/// Per-term cycles one block spends in the phase described by `slots` (one
/// entry per thread; counters are the phase's).
CycleBreakdown phase_cycle_terms(const DeviceSpec& spec,
                                 std::span<const ThreadSlot> slots);

/// Total cycles of the phase — phase_cycle_terms(...).total().
double phase_cycles(const DeviceSpec& spec, std::span<const ThreadSlot> slots);

/// Launch-level aggregation, in seconds.
double launch_seconds(const DeviceSpec& spec, std::span<const double> block_cycles,
                      std::uint32_t blocks_per_sm,
                      std::uint64_t total_global_bytes = 0);

}  // namespace gm::simt
