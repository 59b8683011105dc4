// Kernel launch machinery: runs one coroutine per logical thread, drives
// phases between barriers, executes collectives, charges the cost model,
// and schedules blocks across host worker threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "simt/arena.h"
#include "simt/device.h"
#include "simt/kernel.h"
#include "simt/perf_model.h"
#include "util/parallel.h"

namespace gm::simt {

struct LaunchConfig {
  std::uint32_t grid = 1;    ///< number of blocks
  std::uint32_t block = 256; ///< threads per block (τ)
  std::uint32_t blocks_per_sm = 0;  ///< 0 = device maximum
  std::string label;         ///< for diagnostics
};

struct LaunchStats {
  double modeled_seconds = 0.0;
  std::uint64_t phases = 0;       ///< total barrier phases across blocks
  std::uint64_t resumes = 0;      ///< coroutine resumes (host-cost figure)
  PhaseCounters work{};           ///< total accounted work
  CycleBreakdown cycle_terms{};   ///< per-term cycles summed over blocks
};

/// Executes the threads of one block to completion. Exposed separately from
/// launch() so tests can drive single blocks deterministically.
struct BlockResult {
  double cycles = 0.0;
  std::uint64_t phases = 0;
  std::uint64_t resumes = 0;  ///< thread resumes; sleeping threads make none
  PhaseCounters work{};
  CycleBreakdown cycle_terms{};
};

namespace detail {

/// Per-worker scratch reused across run_block calls: thread slots, contexts
/// (frames hold ThreadCtx&, so these must outlive each block run), the
/// KernelTask frame handles, and the phase's cost fold. Lives next to the
/// worker's FrameArena; the accessor constructs the arena first so
/// thread-exit destruction destroys the workspace (releasing any frames)
/// before the arena.
struct BlockWorkspace {
  std::vector<ThreadSlot> slots;
  std::vector<ThreadCtx> ctxs;
  std::vector<KernelTask> tasks;
  PhaseFold fold;
};

/// The collective a phase ends on, joined over the threads waiting at its
/// barrier (sleeping threads wait on kSync).
struct PhaseJoin {
  PhaseOp op = PhaseOp::kNone;
  bool divergent = false;

  void note(PhaseOp p) noexcept {
    if (p == PhaseOp::kNone || p == op) return;
    if (op == PhaseOp::kNone) {
      op = p;
    } else {
      divergent = true;
    }
  }
};

BlockWorkspace& block_workspace();

void check_block_dim(const DeviceSpec& spec, std::uint32_t block_dim);

/// Charges the finished phase (folded in `ws.fold`) to the cost model and
/// executes the collective the live threads wait on (throws
/// std::logic_error on divergent barrier kinds). The non-templated tail of
/// run_block's phase loop.
void finish_phase(const DeviceSpec& spec, BlockWorkspace& ws,
                  const PhaseJoin& join, BlockResult& result);

}  // namespace detail

/// Runs block `block_id`: one coroutine frame per logical thread, resumed
/// phase-by-phase between barriers. A thread sleeping through barriers
/// (ThreadCtx::sync(n)) is not resumed in those phases; a finished thread
/// is charged only for the phase in which it returned. `make_task` is any
/// callable (ThreadCtx&) -> KernelTask — templated so launch() pays no
/// std::function indirection per thread. Frames, slots, and contexts come
/// from the worker's reusable workspace; on any exception (a throwing
/// kernel or a divergent collective) every coroutine frame — including
/// suspended siblings — is destroyed before the exception leaves this
/// function.
template <typename MakeTask>
BlockResult run_block(const DeviceSpec& spec, std::uint32_t block_id,
                      std::uint32_t grid_dim, std::uint32_t block_dim,
                      MakeTask&& make_task) {
  detail::check_block_dim(spec, block_dim);
  detail::BlockWorkspace& ws = detail::block_workspace();
  FrameArena& arena = FrameArena::local();
  const auto cleanup = [&]() noexcept {
    ws.tasks.clear();     // destroy every frame (suspended ones included)
    arena.maybe_reset();  // then rewind their storage in one step
  };

  ws.tasks.clear();
  ws.ctxs.clear();
  ws.slots.assign(block_dim, ThreadSlot{});
  ws.ctxs.reserve(block_dim);
  ws.tasks.reserve(block_dim);
  ws.fold.reset(block_dim, spec.warp_size);
  arena.maybe_reset();

  BlockResult result;
  try {
    for (std::uint32_t t = 0; t < block_dim; ++t) {
      ws.ctxs.emplace_back(t, block_id, block_dim, grid_dim, &ws.slots[t]);
      ws.tasks.push_back(make_task(ws.ctxs.back()));
    }

    std::uint32_t alive = block_dim;
    while (alive > 0) {
      // Run every awake live thread to its next suspension point, folding
      // its counters into the phase as it returns.
      detail::PhaseJoin join;
      for (std::uint32_t t = 0; t < block_dim; ++t) {
        ThreadSlot& slot = ws.slots[t];
        if (slot.done) continue;
        if (slot.sleep > 0) {
          --slot.sleep;
          join.note(PhaseOp::kSync);
          continue;
        }
        slot.pending = PhaseOp::kNone;
        slot.phase = PhaseCounters{};
        auto handle = ws.tasks[t].handle();
        handle.resume();
        ++result.resumes;
        ws.fold.add(t, slot.phase);
        result.work += slot.phase;
        if (handle.done()) {
          slot.done = true;
          --alive;
          if (handle.promise().exception) {
            std::rethrow_exception(handle.promise().exception);
          }
        } else {
          join.note(slot.pending);
        }
      }
      detail::finish_phase(spec, ws, join, result);
    }
  } catch (...) {
    cleanup();
    throw;
  }
  cleanup();
  return result;
}

/// Emits the launch's span on the modeled-device trace track: phase count,
/// work counters, wave/occupancy figures, and the per-term cycle breakdown.
/// Call only when obs::enabled(); `modeled_start` is the ledger total just
/// before the launch's seconds were added. Returns the span's trace index
/// so the stream scheduler can retime it onto an overlapped timeline.
std::size_t record_launch_span(const Device& dev, const LaunchConfig& cfg,
                               const LaunchStats& stats, double modeled_start);

/// Launches `fn(ctx, smem, args...)` over cfg.grid blocks of cfg.block
/// threads. SharedT is default-constructed once per block (the shared
/// memory). `fn` must be a plain function / stateless functor — a capturing
/// lambda coroutine would dangle. Returns modeled device time and adds it to
/// the device ledger.
template <typename SharedT, typename Fn, typename... Args>
LaunchStats launch(Device& dev, const LaunchConfig& cfg, Fn&& fn,
                   Args&&... args) {
  std::vector<double> block_cycles(cfg.grid, 0.0);
  std::vector<BlockResult> results(cfg.grid);
  util::parallel_for_chunked(
      0, cfg.grid, util::ThreadPool::global().size(),
      [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          SharedT smem{};
          results[b] = run_block(dev.spec(), static_cast<std::uint32_t>(b),
                                 cfg.grid, cfg.block,
                                 [&](ThreadCtx& ctx) -> KernelTask {
                                   return fn(ctx, smem, args...);
                                 });
          block_cycles[b] = results[b].cycles;
        }
      });
  LaunchStats stats;
  for (const BlockResult& r : results) {
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

/// Shared-memory tag for kernels that use none.
struct NoShared {};

}  // namespace gm::simt
