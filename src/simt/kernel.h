// SIMT kernel model: the coroutine form and the accounting both forms share.
//
// Coroutine form. A kernel is a plain function returning KernelTask and
// taking a ThreadCtx& (plus a shared-memory struct reference and arbitrary
// parameters). One coroutine frame per logical device thread;
// `co_await ctx.sync()` is __syncthreads(). The block scheduler
// (executor.h, run_block) resumes every awake, live thread once per *phase*
// (the code between two barriers), performs any collective operation the
// threads requested, charges the phase to the cost model, and repeats.
//
// Phase form. A kernel may instead be written loop-fissioned at its
// barriers (MCUDA: Stratton, Stone and Hwu, LCPC 2008): one loop over the
// thread ids per barrier-free region, with the state that crosses a barrier
// kept in block-local arrays, driven by executor.h's PhaseBlock. The
// barrier semantics and the cost model are the same; a phase in which only
// some threads work (a sparse phase) costs host time only for those. The
// match kernel (core/match_kernel.cpp) runs this way; the index, scan and
// tile-combine kernels are coroutines.
//
// Sleeping through barriers: `co_await ctx.sync(n)` is n back-to-back
// __syncthreads() with no work between them. The thread suspends once and
// the scheduler passes it through the other n - 1 barriers without resuming
// it: in those phases its counters are zero and it counts as waiting on a
// plain barrier (so a sibling's scan_add there is still a divergent
// collective). On hardware an idle lane costs nothing at a barrier; here a
// resume costs host time. sync(0) is a no-op.
//
// Why coroutines: barrier semantics need every thread to suspend mid-body
// with its locals intact. Coroutine frames give exactly that without a
// thread-per-lane (which would be thousands of OS threads) and keep
// intra-block execution deterministic.
//
// Cooperative collectives: ctx.scan_add() is a CUB-BlockScan-style
// exclusive prefix sum across the block — real CUDA code uses library
// block-scans the same way; the simulator executes it at the barrier point
// and charges the documented log2(block) cost.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "simt/arena.h"

namespace gm::simt {

/// Per-phase work counters, the cost model's input. Kernels account their
/// own work through ThreadCtx helpers; coarse counts are fine — the model
/// targets relative behaviour (divergence, imbalance, memory pressure).
struct PhaseCounters {
  std::uint64_t alu = 0;          ///< lock-step ALU operations
  std::uint64_t global_bytes = 0; ///< global-memory traffic
  std::uint64_t txns = 0;         ///< dependent random transactions (latency)
  std::uint64_t shared_ops = 0;   ///< shared-memory accesses
  std::uint64_t atomics = 0;      ///< global atomic operations

  PhaseCounters& operator+=(const PhaseCounters& o) {
    alu += o.alu;
    global_bytes += o.global_bytes;
    txns += o.txns;
    shared_ops += o.shared_ops;
    atomics += o.atomics;
    return *this;
  }
};

struct ScanResult {
  std::uint64_t exclusive = 0;  ///< sum of values of lower-id threads
  std::uint64_t total = 0;      ///< block-wide sum
};

enum class PhaseOp : std::uint8_t { kNone, kSync, kScan };

/// Scheduler-side state of one logical thread.
struct ThreadSlot {
  PhaseOp pending = PhaseOp::kNone;
  std::uint64_t operand = 0;
  ScanResult scan_result{};
  bool done = false;
  std::uint32_t sleep = 0;  ///< barriers still to pass without resuming
  PhaseCounters phase;   ///< counters for the current phase
};

class KernelTask {
 public:
  struct promise_type {
    std::exception_ptr exception;

    // Frames come from the running thread's bump arena instead of the
    // global allocator: run_block creates/destroys τ frames per block, and
    // FrameArena::maybe_reset() recycles the whole batch with one rewind.
    static void* operator new(std::size_t bytes) {
      return FrameArena::local().allocate(bytes);
    }
    static void operator delete(void* p) noexcept { FrameArena::release(p); }
    static void operator delete(void* p, std::size_t) noexcept {
      FrameArena::release(p);
    }

    KernelTask get_return_object() {
      return KernelTask(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  KernelTask() = default;
  explicit KernelTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  KernelTask(KernelTask&& o) noexcept
      : handle_(std::exchange(o.handle_, nullptr)) {}
  KernelTask& operator=(KernelTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  KernelTask(const KernelTask&) = delete;
  KernelTask& operator=(const KernelTask&) = delete;
  ~KernelTask() { destroy(); }

  std::coroutine_handle<promise_type> handle() const noexcept { return handle_; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Work-accounting handle: adds to the counters of one thread's current
/// phase. ThreadCtx is one (coroutine form); a phase-form kernel points one
/// at the PhaseCounters it folds after a thread's body, or takes
/// PhaseBlock::uniform() for work every thread does.
class Lane {
 public:
  Lane() = default;
  explicit Lane(PhaseCounters* counters) : counters_(counters) {}

  void alu(std::uint64_t n = 1) noexcept { counters_->alu += n; }
  void gmem(std::uint64_t bytes) noexcept { counters_->global_bytes += bytes; }
  /// Uncoalesced global accesses: each random access moves a full 128-byte
  /// transaction regardless of payload (charged to device bandwidth) *and*
  /// serializes on the issuing lane (charged as per-warp latency) — the two
  /// dominant costs of index lookups on Kepler-class devices and the main
  /// calibration levers of the model.
  void gmem_txn(std::uint64_t n = 1) noexcept {
    counters_->global_bytes += n * 128;
    counters_->txns += n;
  }
  void smem(std::uint64_t n = 1) noexcept { counters_->shared_ops += n; }
  void atomic_op(std::uint64_t n = 1) noexcept { counters_->atomics += n; }

 private:
  PhaseCounters* counters_ = nullptr;
};

class ThreadCtx : public Lane {
 public:
  ThreadCtx() = default;
  ThreadCtx(std::uint32_t tid, std::uint32_t bid, std::uint32_t bdim,
            std::uint32_t gdim, ThreadSlot* slot)
      : Lane(&slot->phase),
        tid_(tid),
        bid_(bid),
        bdim_(bdim),
        gdim_(gdim),
        slot_(slot) {}

  std::uint32_t thread_id() const noexcept { return tid_; }
  std::uint32_t block_id() const noexcept { return bid_; }
  std::uint32_t block_dim() const noexcept { return bdim_; }
  std::uint32_t grid_dim() const noexcept { return gdim_; }
  /// Global thread index (blockIdx.x * blockDim.x + threadIdx.x).
  std::uint64_t global_id() const noexcept {
    return static_cast<std::uint64_t>(bid_) * bdim_ + tid_;
  }

  // --- barriers & collectives ----------------------------------------------
  struct SyncAwaiter {
    ThreadSlot* slot;
    std::uint32_t barriers;
    bool await_ready() const noexcept { return barriers == 0; }
    void await_suspend(std::coroutine_handle<>) const noexcept {
      slot->pending = PhaseOp::kSync;
      slot->sleep = barriers - 1;
    }
    void await_resume() const noexcept {}
  };
  /// `n` back-to-back __syncthreads() (default one). All live threads of the
  /// block must reach each barrier; the thread sleeps through all but the
  /// first without being resumed. sync(0) passes no barrier and does not
  /// suspend.
  [[nodiscard]] SyncAwaiter sync(std::uint32_t n = 1) const noexcept {
    return {slot_, n};
  }

  struct ScanAwaiter {
    ThreadSlot* slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {
      slot->pending = PhaseOp::kScan;
    }
    ScanResult await_resume() const noexcept { return slot->scan_result; }
  };
  /// Block-wide exclusive prefix sum over one value per thread (collective;
  /// all live threads must participate).
  [[nodiscard]] ScanAwaiter scan_add(std::uint64_t value) const noexcept {
    slot_->operand = value;
    return {slot_};
  }

 private:
  std::uint32_t tid_ = 0, bid_ = 0, bdim_ = 0, gdim_ = 0;
  ThreadSlot* slot_ = nullptr;
};

/// Device-wide atomic add usable from kernels (blocks run concurrently on
/// host threads). Returns the previous value, like CUDA's atomicAdd.
template <typename T>
inline T atomic_fetch_add(T* addr, T value) noexcept {
  return std::atomic_ref<T>(*addr).fetch_add(value, std::memory_order_relaxed);
}

}  // namespace gm::simt
