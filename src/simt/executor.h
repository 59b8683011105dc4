// Kernel launch machinery: runs a block's threads phase by phase between
// barriers — as one coroutine per logical thread (run_block) or as
// loop-fissioned phase loops (PhaseBlock) — executes collectives, charges
// the cost model, and schedules blocks across host worker threads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
  std::uint64_t resumes = 0;      ///< thread bodies run (host-cost figure)
  PhaseCounters work{};           ///< total accounted work
  CycleBreakdown cycle_terms{};   ///< per-term cycles summed over blocks
};

/// What one block's run charged. Exposed separately from launch() so tests
/// can drive single blocks deterministically.
struct BlockResult {
  double cycles = 0.0;
  std::uint64_t phases = 0;
  /// Thread bodies run: coroutine resumes (sleeping threads make none), or
  /// in the phase form τ per full phase and the folded threads per sparse
  /// phase.
  std::uint64_t resumes = 0;
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

/// Charges the phase folded in `fold` (clearing it): its per-term cycles
/// and one phase.
void charge_phase(const DeviceSpec& spec, PhaseFold& fold,
                  BlockResult& result);

/// Charges a block scan's ~2·ceil_log2(block) lock-step shared-memory steps,
/// beyond the barrier of the phase it ends.
void charge_scan(const DeviceSpec& spec, std::uint32_t block_dim,
                 BlockResult& result);

/// Charges the finished phase (folded in `ws.fold`) to the cost model and
/// executes the collective the live threads wait on (throws
/// std::logic_error on divergent barrier kinds). The non-templated tail of
/// run_block's phase loop.
void finish_phase(const DeviceSpec& spec, BlockWorkspace& ws,
                  const PhaseJoin& join, BlockResult& result);

/// The launch tail both kernel forms share: sums the blocks' results, adds
/// the launch's modeled seconds to the device ledger, records its span, and
/// hands the block durations to the device's segment sink.
LaunchStats finish_launch(Device& dev, const LaunchConfig& cfg,
                          std::span<const BlockResult> results);

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

/// Phase-form execution of one block (kernel.h). The kernel runs each
/// barrier-free region as one loop over the thread ids in ascending order.
/// A thread's own work in the phase goes into a PhaseCounters it hands to
/// fold() right after its body; work every thread does alike goes through
/// uniform(). The region then ends with
///   - barrier(): every thread ran (a full phase); a thread never folded
///     did only the uniform work;
///   - scan(values): a full phase whose barrier is also a block-wide
///     exclusive prefix sum, charged like run_block's scan_add;
///   - sparse_barrier(): only the folded threads ran and nothing is
///     uniform; the others, like lanes with zero counters, add nothing.
/// finish() charges the phase in which the threads return, as run_block
/// does, and yields the result. Cycles, phases, work and per-term cycles are
/// bit-identical to the coroutine form's for the same work; `resumes` counts
/// τ per full phase and the folded threads per sparse one. The fold lives in
/// the worker's workspace: one PhaseBlock per host worker at a time.
class PhaseBlock {
 public:
  PhaseBlock(const DeviceSpec& spec, std::uint32_t block_dim);
  PhaseBlock(const PhaseBlock&) = delete;
  PhaseBlock& operator=(const PhaseBlock&) = delete;

  /// Accounting for work every thread of the current full phase does.
  Lane uniform() noexcept { return Lane(&uniform_); }

  /// Folds thread `tid`'s own work in the current phase; at most once per
  /// thread per phase, right after its body.
  void fold(std::uint32_t tid, const PhaseCounters& c) noexcept {
    fold_.add(tid, c);
    result_.work += c;
    ++folded_;
  }

  /// __syncthreads() ending a full phase.
  void barrier();

  /// A full phase ending in a block-wide exclusive prefix sum: replaces each
  /// values[t] (one per thread) by the sum of the lower ids' values and
  /// returns the block total.
  std::uint64_t scan(std::span<std::uint64_t> values);

  /// __syncthreads() ending a phase in which only the folded threads ran.
  void sparse_barrier();

  /// Charges the final phase (a full one: the threads return) and yields
  /// the block's result.
  BlockResult finish();

 private:
  void charge(std::uint64_t resumes);

  const DeviceSpec& spec_;
  std::uint32_t block_dim_;
  PhaseFold& fold_;
  PhaseCounters uniform_{};
  std::uint64_t folded_ = 0;
  BlockResult result_;
};

/// Emits the launch's span on the modeled-device trace track: phase count,
/// work counters, wave/occupancy figures, and the per-term cycle breakdown.
/// Call only when obs::enabled(); `modeled_start` is the ledger total just
/// before the launch's seconds were added. Returns the span's trace index
/// so the stream scheduler can retime it onto an overlapped timeline.
std::size_t record_launch_span(const Device& dev, const LaunchConfig& cfg,
                               const LaunchStats& stats, double modeled_start);

/// Runs `run_one(block_id) -> BlockResult` for each of the cfg.grid blocks
/// across the host workers and charges the launch: modeled device time is
/// added to the device ledger and returned.
template <typename RunBlock>
LaunchStats launch_blocks(Device& dev, const LaunchConfig& cfg,
                          RunBlock&& run_one) {
  std::vector<BlockResult> results(cfg.grid);
  util::parallel_for_chunked(
      0, cfg.grid, util::ThreadPool::global().size(),
      [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          results[b] = run_one(static_cast<std::uint32_t>(b));
        }
      });
  return detail::finish_launch(dev, cfg, results);
}

/// Launches `fn(ctx, smem, args...)` over cfg.grid blocks of cfg.block
/// threads. SharedT is default-constructed once per block (the shared
/// memory). `fn` must be a plain function / stateless functor — a capturing
/// lambda coroutine would dangle. Returns modeled device time and adds it to
/// the device ledger.
template <typename SharedT, typename Fn, typename... Args>
LaunchStats launch(Device& dev, const LaunchConfig& cfg, Fn&& fn,
                   Args&&... args) {
  return launch_blocks(dev, cfg, [&](std::uint32_t b) {
    SharedT smem{};
    return run_block(dev.spec(), b, cfg.grid, cfg.block,
                     [&](ThreadCtx& ctx) -> KernelTask {
                       return fn(ctx, smem, args...);
                     });
  });
}

/// Shared-memory tag for kernels that use none.
struct NoShared {};

}  // namespace gm::simt
