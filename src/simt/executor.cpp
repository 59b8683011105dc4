#include "simt/executor.h"

#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "util/bits.h"

namespace gm::simt {
namespace detail {

BlockWorkspace& block_workspace() {
  // Construct the arena first: at thread exit, thread_locals are destroyed
  // in reverse construction order, so the workspace (whose task destructors
  // release frames into the arena) must go before the arena does.
  FrameArena::local();
  thread_local BlockWorkspace ws;
  return ws;
}

void check_block_dim(const DeviceSpec& spec, std::uint32_t block_dim) {
  if (block_dim == 0 || block_dim > spec.max_threads_per_block) {
    throw std::invalid_argument("run_block: invalid block dimension " +
                                std::to_string(block_dim));
  }
}

void finish_phase(const DeviceSpec& spec, BlockWorkspace& ws,
                  const PhaseJoin& join, BlockResult& result) {
  const CycleBreakdown terms = ws.fold.take_terms(spec);
  result.cycles += terms.total();
  result.cycle_terms += terms;
  ++result.phases;

  // Mixing barrier kinds within a block is a kernel bug (UB on real
  // hardware); detect it.
  if (join.divergent) {
    throw std::logic_error(
        "run_block: divergent collective (threads suspended on "
        "different barrier kinds)");
  }
  if (join.op == PhaseOp::kScan) {
    std::uint64_t running = 0;
    for (ThreadSlot& s : ws.slots) {
      if (s.done) continue;
      s.scan_result.exclusive = running;
      running += s.operand;
    }
    for (ThreadSlot& s : ws.slots) {
      if (!s.done) s.scan_result.total = running;
    }
    // A block scan costs ~2 log2(block) lock-step steps on real hardware;
    // charge it as extra cycles beyond the barrier already counted.
    const double scan_cycles =
        2.0 *
        static_cast<double>(
            util::ceil_log2(static_cast<std::uint32_t>(ws.slots.size()))) *
        spec.cycles_per_shared;
    result.cycles += scan_cycles;
    result.cycle_terms.shared += scan_cycles;
  }
}

}  // namespace detail

std::size_t record_launch_span(const Device& dev, const LaunchConfig& cfg,
                               const LaunchStats& stats, double modeled_start) {
  const DeviceSpec& spec = dev.spec();
  const std::uint32_t per_sm =
      cfg.blocks_per_sm == 0 ? spec.max_blocks_per_sm : cfg.blocks_per_sm;
  const std::uint64_t resident = std::uint64_t{spec.sm_count} * per_sm;
  const std::uint64_t waves = util::ceil_div<std::uint64_t>(cfg.grid, resident);
  std::vector<obs::Attr> attrs;
  attrs.reserve(17);
  attrs.push_back({"grid", std::uint64_t{cfg.grid}});
  attrs.push_back({"block", std::uint64_t{cfg.block}});
  attrs.push_back({"waves", waves});
  attrs.push_back({"occupancy",
                   static_cast<double>(cfg.grid) /
                       static_cast<double>(waves * resident)});
  attrs.push_back({"phases", stats.phases});
  attrs.push_back({"resumes", stats.resumes});
  attrs.push_back({"work.alu", stats.work.alu});
  attrs.push_back({"work.global_bytes", stats.work.global_bytes});
  attrs.push_back({"work.txns", stats.work.txns});
  attrs.push_back({"work.shared_ops", stats.work.shared_ops});
  attrs.push_back({"work.atomics", stats.work.atomics});
  attrs.push_back({"cycles.compute", stats.cycle_terms.compute});
  attrs.push_back({"cycles.shared", stats.cycle_terms.shared});
  attrs.push_back({"cycles.latency", stats.cycle_terms.latency});
  attrs.push_back({"cycles.atomics", stats.cycle_terms.atomics});
  attrs.push_back({"cycles.barrier", stats.cycle_terms.barrier});
  return obs::record_modeled_span(cfg.label.empty() ? "kernel" : cfg.label,
                                  "kernel", modeled_start,
                                  stats.modeled_seconds, dev.ordinal(),
                                  std::move(attrs));
}

}  // namespace gm::simt
