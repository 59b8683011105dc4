#include "simt/executor.h"

#include <stdexcept>
#include <utility>
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

void charge_phase(const DeviceSpec& spec, PhaseFold& fold,
                  BlockResult& result) {
  const CycleBreakdown terms = fold.take_terms(spec);
  result.cycles += terms.total();
  result.cycle_terms += terms;
  ++result.phases;
}

void charge_scan(const DeviceSpec& spec, std::uint32_t block_dim,
                 BlockResult& result) {
  const double scan_cycles = 2.0 *
                             static_cast<double>(util::ceil_log2(block_dim)) *
                             spec.cycles_per_shared;
  result.cycles += scan_cycles;
  result.cycle_terms.shared += scan_cycles;
}

void finish_phase(const DeviceSpec& spec, BlockWorkspace& ws,
                  const PhaseJoin& join, BlockResult& result) {
  charge_phase(spec, ws.fold, result);

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
    charge_scan(spec, static_cast<std::uint32_t>(ws.slots.size()), result);
  }
}

LaunchStats finish_launch(Device& dev, const LaunchConfig& cfg,
                          std::span<const BlockResult> results) {
  std::vector<double> block_cycles;
  block_cycles.reserve(results.size());
  LaunchStats stats;
  for (const BlockResult& r : results) {
    block_cycles.push_back(r.cycles);
    stats.phases += r.phases;
    stats.resumes += r.resumes;
    stats.work += r.work;
    stats.cycle_terms += r.cycle_terms;
  }
  stats.modeled_seconds = launch_seconds(
      dev.spec(), block_cycles, cfg.blocks_per_sm, stats.work.global_bytes);
  const double modeled_start = dev.ledger().total_seconds();
  dev.ledger().add_kernel_seconds(stats.modeled_seconds, cfg.label);
  std::ptrdiff_t span_index = -1;
  if (obs::enabled()) {
    span_index = static_cast<std::ptrdiff_t>(
        record_launch_span(dev, cfg, stats, modeled_start));
  }
  if (dev.segment_sink() != nullptr) {
    const double clock = dev.spec().clock_hz;
    for (double& c : block_cycles) c /= clock;
    dev.note_kernel_launch(
        cfg.label, std::move(block_cycles),
        static_cast<double>(stats.work.global_bytes) / dev.spec().mem_bandwidth,
        stats.modeled_seconds, cfg.blocks_per_sm, span_index);
  }
  return stats;
}

}  // namespace detail

namespace {

/// Per-worker phase-form fold, reused across blocks.
PhaseFold& phase_fold() {
  thread_local PhaseFold fold;
  return fold;
}

}  // namespace

PhaseBlock::PhaseBlock(const DeviceSpec& spec, std::uint32_t block_dim)
    : spec_(spec), block_dim_(block_dim), fold_(phase_fold()) {
  detail::check_block_dim(spec, block_dim);
  fold_.reset(block_dim, spec.warp_size);
}

void PhaseBlock::charge(std::uint64_t resumes) {
  result_.resumes += resumes;
  folded_ = 0;
  detail::charge_phase(spec_, fold_, result_);
}

void PhaseBlock::barrier() {
  fold_.add_uniform(uniform_, block_dim_);
  PhaseCounters all = uniform_;
  all.alu *= block_dim_;
  all.global_bytes *= block_dim_;
  all.txns *= block_dim_;
  all.shared_ops *= block_dim_;
  all.atomics *= block_dim_;
  result_.work += all;
  uniform_ = PhaseCounters{};
  charge(block_dim_);
}

std::uint64_t PhaseBlock::scan(std::span<std::uint64_t> values) {
  barrier();
  std::uint64_t running = 0;
  for (std::uint64_t& v : values) {
    const std::uint64_t own = v;
    v = running;
    running += own;
  }
  detail::charge_scan(spec_, block_dim_, result_);
  return running;
}

void PhaseBlock::sparse_barrier() {
  // Work every thread does makes the phase a full one.
  if (uniform_.alu != 0 || uniform_.global_bytes != 0 || uniform_.txns != 0 ||
      uniform_.shared_ops != 0 || uniform_.atomics != 0) {
    throw std::logic_error("PhaseBlock: uniform work in a sparse phase");
  }
  charge(folded_);
}

BlockResult PhaseBlock::finish() {
  barrier();
  return result_;
}

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
