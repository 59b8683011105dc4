#include "simt/perf_model.h"

#include <algorithm>

namespace gm::simt {

void PhaseFold::reset(std::uint32_t block_dim, std::uint32_t warp_size) {
  warp_size_ = warp_size;
  warps_.assign((block_dim + warp_size - 1) / warp_size, WarpMax{});
  atomics_ = 0;
}

void PhaseFold::add_uniform(const PhaseCounters& u,
                            std::uint32_t block_dim) noexcept {
  for (WarpMax& w : warps_) {
    w.alu += u.alu;
    w.shared_ops += u.shared_ops;
    w.txns += u.txns;
  }
  atomics_ += u.atomics * block_dim;
}

CycleBreakdown PhaseFold::take_terms(const DeviceSpec& spec) noexcept {
  double compute = 0.0, shared = 0.0, latency = 0.0;
  for (WarpMax& w : warps_) {
    compute += static_cast<double>(w.alu);
    shared += static_cast<double>(w.shared_ops);
    latency += static_cast<double>(w.txns);
    w = WarpMax{};
  }
  const double warp_ipc = static_cast<double>(spec.cores_per_sm) /
                          static_cast<double>(spec.warp_size);
  CycleBreakdown terms;
  terms.compute = compute * spec.cycles_per_alu / warp_ipc;
  terms.shared = shared * spec.cycles_per_shared;
  terms.latency = latency * spec.cycles_per_txn;
  terms.atomics = static_cast<double>(atomics_) * spec.cycles_per_atomic;
  terms.barrier = spec.cycles_per_barrier;
  atomics_ = 0;
  return terms;
}

CycleBreakdown phase_cycle_terms(const DeviceSpec& spec,
                                 std::span<const ThreadSlot> slots) {
  PhaseFold fold;
  fold.reset(static_cast<std::uint32_t>(slots.size()), spec.warp_size);
  for (std::size_t t = 0; t < slots.size(); ++t) {
    fold.add(static_cast<std::uint32_t>(t), slots[t].phase);
  }
  return fold.take_terms(spec);
}

double phase_cycles(const DeviceSpec& spec, std::span<const ThreadSlot> slots) {
  return phase_cycle_terms(spec, slots).total();
}

double launch_seconds(const DeviceSpec& spec,
                      std::span<const double> block_cycles,
                      std::uint32_t blocks_per_sm,
                      std::uint64_t total_global_bytes) {
  if (blocks_per_sm == 0) blocks_per_sm = spec.max_blocks_per_sm;
  double sum = 0.0, mx = 0.0;
  for (double c : block_cycles) {
    sum += c;
    mx = std::max(mx, c);
  }
  const double resident =
      static_cast<double>(spec.sm_count) * static_cast<double>(blocks_per_sm);
  const double cycles = std::max(sum / resident, mx);
  return cycles / spec.clock_hz +
         static_cast<double>(total_global_bytes) / spec.mem_bandwidth +
         spec.kernel_launch_seconds;
}

}  // namespace gm::simt
