// SIMT simulator tests: memory accounting, kernel execution semantics
// (barriers, collectives, atomics), device-wide scan, and the cost model's
// load-imbalance sensitivity (the property Fig. 7 depends on).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "simt/arena.h"
#include "simt/buffer.h"
#include "simt/executor.h"
#include "simt/primitives.h"

namespace gm {
namespace {

using simt::Device;
using simt::DeviceSpec;
using simt::KernelTask;
using simt::LaunchConfig;
using simt::NoShared;
using simt::ThreadCtx;

TEST(Device, TracksAllocationAndOom) {
  DeviceSpec spec = DeviceSpec::k20c();
  spec.global_mem_bytes = 1024;
  Device dev(spec);
  {
    simt::Buffer<std::uint32_t> a(dev, 128);  // 512 bytes
    EXPECT_EQ(dev.bytes_in_use(), 512u);
    EXPECT_THROW(simt::Buffer<std::uint32_t>(dev, 200),
                 simt::DeviceOutOfMemory);
    simt::Buffer<std::uint32_t> b(dev, 128);
    EXPECT_EQ(dev.bytes_in_use(), 1024u);
    EXPECT_EQ(dev.peak_bytes(), 1024u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 1024u);
}

TEST(Device, SpecsAreDistinct) {
  const DeviceSpec k20 = DeviceSpec::k20c();
  const DeviceSpec k40 = DeviceSpec::k40();
  EXPECT_LT(k20.sm_count, k40.sm_count);
  EXPECT_LT(k20.global_mem_bytes, k40.global_mem_bytes);
  EXPECT_EQ(k20.sm_count, 13u);       // the paper's card
  EXPECT_EQ(k20.cores_per_sm, 192u);  // 2496 CUDA cores total
}

KernelTask saxpy_kernel(ThreadCtx& ctx, NoShared&, std::span<float> y,
                        std::span<const float> x, float a) {
  const std::uint64_t i = ctx.global_id();
  if (i < y.size()) {
    y[i] = a * x[i] + y[i];
    ctx.alu(2);
    ctx.gmem(12);
  }
  co_return;
}

TEST(Executor, GridCoversAllThreads) {
  Device dev;
  std::vector<float> y(1000, 1.0f), x(1000, 2.0f);
  LaunchConfig cfg;
  cfg.grid = 8;
  cfg.block = 128;
  const auto stats = simt::launch<NoShared>(
      dev, cfg, saxpy_kernel, std::span<float>(y),
      std::span<const float>(x), 3.0f);
  for (float v : y) EXPECT_FLOAT_EQ(v, 7.0f);
  EXPECT_GT(stats.modeled_seconds, 0.0);
  EXPECT_EQ(dev.ledger().kernels_launched(), 1u);
}

struct PingPongShared {
  std::vector<int> slots;
};

KernelTask pingpong_kernel(ThreadCtx& ctx, PingPongShared& smem,
                           std::span<int> out) {
  const std::uint32_t tid = ctx.thread_id();
  const std::uint32_t n = ctx.block_dim();
  if (tid == 0) smem.slots.assign(n, 0);
  co_await ctx.sync();
  smem.slots[tid] = static_cast<int>(tid);
  co_await ctx.sync();
  // Read the neighbour's value — only correct if the barrier worked.
  out[tid] = smem.slots[(tid + 1) % n];
  co_return;
}

TEST(Executor, BarriersOrderSharedMemory) {
  Device dev;
  std::vector<int> out(64, -1);
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 64;
  simt::launch<PingPongShared>(dev, cfg, pingpong_kernel, std::span<int>(out));
  for (std::uint32_t t = 0; t < 64; ++t) {
    EXPECT_EQ(out[t], static_cast<int>((t + 1) % 64));
  }
}

KernelTask scan_kernel(ThreadCtx& ctx, NoShared&, std::span<std::uint64_t> ex,
                       std::span<std::uint64_t> tot) {
  const std::uint32_t tid = ctx.thread_id();
  const simt::ScanResult r = co_await ctx.scan_add(tid + 1);
  ex[tid] = r.exclusive;
  tot[tid] = r.total;
  co_return;
}

TEST(Executor, BlockScanCollective) {
  Device dev;
  const std::uint32_t n = 128;
  std::vector<std::uint64_t> ex(n), tot(n);
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = n;
  simt::launch<NoShared>(dev, cfg, scan_kernel, std::span<std::uint64_t>(ex),
                         std::span<std::uint64_t>(tot));
  std::uint64_t expect = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    EXPECT_EQ(ex[t], expect);
    expect += t + 1;
    EXPECT_EQ(tot[t], static_cast<std::uint64_t>(n) * (n + 1) / 2);
  }
}

KernelTask atomic_kernel(ThreadCtx& ctx, NoShared&,
                         std::span<std::uint32_t> counter) {
  simt::atomic_fetch_add(&counter[0], 1u);
  ctx.atomic_op();
  co_return;
}

TEST(Executor, DeviceWideAtomics) {
  Device dev;
  std::vector<std::uint32_t> counter(1, 0);
  LaunchConfig cfg;
  cfg.grid = 32;
  cfg.block = 64;
  simt::launch<NoShared>(dev, cfg, atomic_kernel,
                         std::span<std::uint32_t>(counter));
  EXPECT_EQ(counter[0], 32u * 64u);
}

KernelTask divergent_kernel(ThreadCtx& ctx, NoShared&) {
  if (ctx.thread_id() % 2 == 0) {
    co_await ctx.sync();
  } else {
    co_await ctx.scan_add(1);
  }
}

TEST(Executor, DivergentCollectiveDetected) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 4;
  EXPECT_THROW(simt::launch<NoShared>(dev, cfg, divergent_kernel),
               std::logic_error);
}

// --- sleeping through barriers (ThreadCtx::sync(n)) -------------------------

/// Threads with tid % 3 == 0 pass five barriers without work in between;
/// the others work in each of those phases. `sleep` picks sync(5) or five
/// sync() calls for the idle threads.
KernelTask idle_rounds_kernel(ThreadCtx& ctx, bool sleep) {
  const std::uint32_t tid = ctx.thread_id();
  ctx.alu(tid + 1);
  ctx.smem(tid % 5);
  if (tid % 3 == 0) {
    if (sleep) {
      co_await ctx.sync(5);
    } else {
      for (int i = 0; i < 5; ++i) co_await ctx.sync();
    }
  } else {
    for (std::uint32_t i = 0; i < 5; ++i) {
      ctx.alu(i * tid);
      ctx.gmem_txn(i % 3);
      ctx.atomic_op(i & 1);
      co_await ctx.sync();
    }
  }
  ctx.alu(7);
  ctx.atomic_op();
}

simt::BlockResult run_idle_rounds(bool sleep) {
  return simt::run_block(DeviceSpec::k20c(), 0, 1, 96,
                         [&](ThreadCtx& ctx) -> KernelTask {
                           return idle_rounds_kernel(ctx, sleep);
                         });
}

TEST(Executor, SyncNIsBitEqualToNSeparateBarriers) {
  const simt::BlockResult awake = run_idle_rounds(false);
  const simt::BlockResult asleep = run_idle_rounds(true);
  EXPECT_EQ(asleep.phases, awake.phases);
  EXPECT_EQ(asleep.phases, 6u);
  EXPECT_EQ(asleep.cycles, awake.cycles);  // bit-equal, not just near
  EXPECT_EQ(asleep.cycle_terms.compute, awake.cycle_terms.compute);
  EXPECT_EQ(asleep.cycle_terms.shared, awake.cycle_terms.shared);
  EXPECT_EQ(asleep.cycle_terms.latency, awake.cycle_terms.latency);
  EXPECT_EQ(asleep.cycle_terms.atomics, awake.cycle_terms.atomics);
  EXPECT_EQ(asleep.cycle_terms.barrier, awake.cycle_terms.barrier);
  EXPECT_EQ(asleep.work.alu, awake.work.alu);
  EXPECT_EQ(asleep.work.global_bytes, awake.work.global_bytes);
  EXPECT_EQ(asleep.work.txns, awake.work.txns);
  EXPECT_EQ(asleep.work.shared_ops, awake.work.shared_ops);
  EXPECT_EQ(asleep.work.atomics, awake.work.atomics);
  // 96 threads x 6 resumes awake; the 32 idle ones resume twice asleep.
  EXPECT_EQ(awake.resumes, 96u * 6u);
  EXPECT_EQ(asleep.resumes, 64u * 6u + 32u * 2u);
}

KernelTask sleep_vs_scan_kernel(ThreadCtx& ctx, NoShared&) {
  if (ctx.thread_id() == 0) {
    co_await ctx.sync(3);
  } else {
    co_await ctx.sync();
    co_await ctx.scan_add(1);  // thread 0 is asleep at a plain barrier here
    co_await ctx.sync();
  }
}

TEST(Executor, SleepingThreadPlusSiblingScanIsDivergent) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 8;
  EXPECT_THROW(simt::launch<NoShared>(dev, cfg, sleep_vs_scan_kernel),
               std::logic_error);
}

KernelTask sync_zero_kernel(ThreadCtx& ctx, NoShared&) {
  ctx.alu(1);
  co_await ctx.sync(0);  // passes no barrier, does not suspend
  ctx.alu(1);
  co_await ctx.sync();
  ctx.alu(1);
}

TEST(Executor, SyncZeroIsANoOp) {
  // Were sync(0) to suspend with a wrapped-around sleep count, the thread
  // would never wake and the block would not finish.
  NoShared smem;
  const simt::BlockResult r = simt::run_block(
      DeviceSpec::k20c(), 0, 1, 32, [&](ThreadCtx& ctx) -> KernelTask {
        return sync_zero_kernel(ctx, smem);
      });
  EXPECT_EQ(r.phases, 2u);
  EXPECT_EQ(r.resumes, 64u);
  EXPECT_EQ(r.work.alu, 96u);
}

KernelTask early_return_kernel(ThreadCtx& ctx, NoShared&) {
  if (ctx.thread_id() == 0) {
    ctx.alu(1000);
    co_return;
  }
  for (int i = 0; i < 3; ++i) co_await ctx.sync();
}

TEST(Executor, FinishedThreadIsChargedOnlyForItsLastPhase) {
  const DeviceSpec spec = DeviceSpec::k20c();
  NoShared smem;
  const simt::BlockResult r =
      simt::run_block(spec, 0, 1, 32, [&](ThreadCtx& ctx) -> KernelTask {
        return early_return_kernel(ctx, smem);
      });
  EXPECT_EQ(r.phases, 4u);
  EXPECT_EQ(r.work.alu, 1000u);
  const double warp_ipc = static_cast<double>(spec.cores_per_sm) /
                          static_cast<double>(spec.warp_size);
  EXPECT_DOUBLE_EQ(r.cycle_terms.compute,
                   1000.0 * spec.cycles_per_alu / warp_ipc);
  EXPECT_DOUBLE_EQ(r.cycles,
                   r.cycle_terms.compute + 4 * spec.cycles_per_barrier);
}

KernelTask throwing_kernel(ThreadCtx& ctx, NoShared&) {
  if (ctx.thread_id() == 3) throw std::runtime_error("kernel bug");
  co_return;
}

TEST(Executor, KernelExceptionsPropagate) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 8;
  EXPECT_THROW(simt::launch<NoShared>(dev, cfg, throwing_kernel),
               std::runtime_error);
}

TEST(Executor, RejectsOversizedBlock) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 4096;  // > max_threads_per_block
  EXPECT_THROW(simt::launch<NoShared>(dev, cfg, throwing_kernel),
               std::invalid_argument);
}

// --- frame lifetime & arena -------------------------------------------------

std::atomic<int> g_live_probes{0};

/// RAII probe held in a coroutine frame: counts frames whose locals are
/// still alive, so tests can prove every frame was destroyed.
struct FrameProbe {
  FrameProbe() { g_live_probes.fetch_add(1); }
  ~FrameProbe() { g_live_probes.fetch_sub(1); }
  FrameProbe(const FrameProbe&) = delete;
  FrameProbe& operator=(const FrameProbe&) = delete;
};

KernelTask probed_throwing_kernel(ThreadCtx& ctx, NoShared&) {
  const FrameProbe probe;
  co_await ctx.sync();  // every sibling reaches the barrier, then...
  if (ctx.thread_id() == 3) throw std::runtime_error("kernel bug");
  co_await ctx.sync();  // ...the others are parked here when thread 3 throws
}

TEST(Executor, ThrowingKernelDestroysSuspendedSiblingFrames) {
  ASSERT_EQ(g_live_probes.load(), 0);
  Device dev;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 8;
  EXPECT_THROW(simt::launch<NoShared>(dev, cfg, probed_throwing_kernel),
               std::runtime_error);
  // All 8 frames — including the 7 siblings suspended mid-kernel — must be
  // gone by the time the exception reaches the caller.
  EXPECT_EQ(g_live_probes.load(), 0);
}

KernelTask probed_plain_kernel(ThreadCtx& ctx, NoShared&) {
  const FrameProbe probe;
  co_await ctx.sync();
}

TEST(Executor, RunBlockRecyclesArenaFrames) {
  // Drive run_block directly on this thread so the arena observed is the
  // one the frames come from.
  auto& arena = simt::FrameArena::local();
  const DeviceSpec spec = DeviceSpec::k20c();
  NoShared smem;
  for (int round = 0; round < 3; ++round) {
    const auto r =
        simt::run_block(spec, 0, 1, 64, [&](ThreadCtx& ctx) -> KernelTask {
          return probed_plain_kernel(ctx, smem);
        });
    EXPECT_GE(r.phases, 2u);
    // After each block: every frame destroyed, arena fully rewound.
    EXPECT_EQ(g_live_probes.load(), 0);
    EXPECT_EQ(arena.live(), 0u);
  }
  // Reuse keeps one warm chunk, not per-frame heap traffic.
  EXPECT_GT(arena.reserved_bytes(), 0u);
}

TEST(Executor, ArenaRecyclesAfterThrowToo) {
  auto& arena = simt::FrameArena::local();
  const DeviceSpec spec = DeviceSpec::k20c();
  NoShared smem;
  EXPECT_THROW(
      simt::run_block(spec, 0, 1, 8, [&](ThreadCtx& ctx) -> KernelTask {
        return probed_throwing_kernel(ctx, smem);
      }),
      std::runtime_error);
  EXPECT_EQ(g_live_probes.load(), 0);
  EXPECT_EQ(arena.live(), 0u);
}

// --- phase-form runner (PhaseBlock) -----------------------------------------

void expect_same_charge(const simt::BlockResult& a,
                        const simt::BlockResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);  // bit-equal, not just near
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.cycle_terms.compute, b.cycle_terms.compute);
  EXPECT_EQ(a.cycle_terms.shared, b.cycle_terms.shared);
  EXPECT_EQ(a.cycle_terms.latency, b.cycle_terms.latency);
  EXPECT_EQ(a.cycle_terms.atomics, b.cycle_terms.atomics);
  EXPECT_EQ(a.cycle_terms.barrier, b.cycle_terms.barrier);
  EXPECT_EQ(a.work.alu, b.work.alu);
  EXPECT_EQ(a.work.global_bytes, b.work.global_bytes);
  EXPECT_EQ(a.work.txns, b.work.txns);
  EXPECT_EQ(a.work.shared_ops, b.work.shared_ops);
  EXPECT_EQ(a.work.atomics, b.work.atomics);
}

/// A few threads' own work in one phase.
simt::PhaseCounters sample_work(std::uint32_t tid) {
  simt::PhaseCounters c;
  simt::Lane lane(&c);
  lane.alu(7 + tid);
  lane.gmem_txn(tid % 3);
  lane.smem(2);
  lane.atomic_op(tid % 2);
  return c;
}

TEST(PhaseBlock, SparseBarrierEqualsFullBarrierOverZeroLanes) {
  const DeviceSpec spec = DeviceSpec::k20c();
  const std::uint32_t working[] = {3, 40, 41, 95};
  simt::PhaseBlock sparse(spec, 96);
  for (std::uint32_t t : working) sparse.fold(t, sample_work(t));
  sparse.sparse_barrier();
  const simt::BlockResult a = sparse.finish();

  simt::PhaseBlock full(spec, 96);
  for (std::uint32_t t = 0; t < 96; ++t) {
    const bool works = t == 3 || t == 40 || t == 41 || t == 95;
    full.fold(t, works ? sample_work(t) : simt::PhaseCounters{});
  }
  full.barrier();
  const simt::BlockResult b = full.finish();

  expect_same_charge(a, b);
  EXPECT_EQ(a.resumes, 4u + 96u);
  EXPECT_EQ(b.resumes, 96u + 96u);
}

TEST(PhaseBlock, UniformWorkEqualsFoldingItIntoEveryThread) {
  const DeviceSpec spec = DeviceSpec::k20c();
  simt::PhaseBlock uniform(spec, 80);  // a partial last warp
  for (std::uint32_t t = 0; t < 80; t += 7) uniform.fold(t, sample_work(t));
  uniform.uniform().alu(5);
  uniform.uniform().smem(3);
  uniform.uniform().gmem_txn(1);
  uniform.uniform().atomic_op(2);
  uniform.barrier();
  const simt::BlockResult a = uniform.finish();

  simt::PhaseBlock folded(spec, 80);
  for (std::uint32_t t = 0; t < 80; ++t) {
    simt::PhaseCounters c =
        t % 7 == 0 ? sample_work(t) : simt::PhaseCounters{};
    simt::Lane lane(&c);
    lane.alu(5);
    lane.smem(3);
    lane.gmem_txn(1);
    lane.atomic_op(2);
    folded.fold(t, c);
  }
  folded.barrier();
  expect_same_charge(a, folded.finish());
}

TEST(PhaseBlock, UniformWorkInASparsePhaseIsRejected) {
  simt::PhaseBlock blk(DeviceSpec::k20c(), 32);
  blk.uniform().alu(1);
  EXPECT_THROW(blk.sparse_barrier(), std::logic_error);
}

KernelTask scan_values_kernel(ThreadCtx& ctx, NoShared&,
                              std::span<const std::uint64_t> in,
                              std::span<simt::ScanResult> out) {
  out[ctx.thread_id()] = co_await ctx.scan_add(in[ctx.thread_id()]);
}

TEST(PhaseBlock, ScanMatchesScanAdd) {
  const DeviceSpec spec = DeviceSpec::k20c();
  const std::uint32_t n = 96;  // not a power of two: ceil_log2 rounds up
  std::vector<std::uint64_t> in(n);
  for (std::uint32_t t = 0; t < n; ++t) in[t] = (t * 2654435761u) % 11;

  std::vector<simt::ScanResult> want(n);
  NoShared smem;
  const simt::BlockResult coro =
      simt::run_block(spec, 0, 1, n, [&](ThreadCtx& ctx) -> KernelTask {
        return scan_values_kernel(ctx, smem, in,
                                  std::span<simt::ScanResult>(want));
      });

  simt::PhaseBlock blk(spec, n);
  std::vector<std::uint64_t> values = in;
  const std::uint64_t total = blk.scan(values);
  const simt::BlockResult phase = blk.finish();

  for (std::uint32_t t = 0; t < n; ++t) {
    EXPECT_EQ(values[t], want[t].exclusive) << "thread " << t;
    EXPECT_EQ(total, want[t].total);
  }
  expect_same_charge(phase, coro);
  // No thread touched shared memory: the shared term is the scan's
  // 2·ceil_log2(τ) lock-step steps alone.
  EXPECT_EQ(phase.cycle_terms.shared, 2.0 * 7.0 * spec.cycles_per_shared);
}

TEST(PhaseBlock, EmptySparsePhaseChargesOnlyTheBarrier) {
  const DeviceSpec spec = DeviceSpec::k20c();
  simt::PhaseBlock base(spec, 64);
  const simt::BlockResult a = base.finish();

  simt::PhaseBlock blk(spec, 64);
  blk.sparse_barrier();
  const simt::BlockResult b = blk.finish();

  EXPECT_EQ(b.phases, a.phases + 1);
  EXPECT_EQ(b.cycles - a.cycles, spec.cycles_per_barrier);
  EXPECT_EQ(b.cycle_terms.barrier, 2 * spec.cycles_per_barrier);
  EXPECT_EQ(b.cycle_terms.compute, 0.0);
  EXPECT_EQ(b.cycle_terms.shared, 0.0);
  EXPECT_EQ(b.cycle_terms.latency, 0.0);
  EXPECT_EQ(b.cycle_terms.atomics, 0.0);
  EXPECT_EQ(b.resumes, a.resumes);  // no thread ran in the sparse phase
}

KernelTask two_phase_kernel(ThreadCtx& ctx, NoShared&) {
  ctx.alu(ctx.thread_id() % 5);
  ctx.smem(1);
  co_await ctx.sync();
  if (ctx.thread_id() % 16 == 3) ctx.gmem_txn(ctx.thread_id());
}

TEST(PhaseBlock, MatchesTheCoroutineFormOfTheSameKernel) {
  const DeviceSpec spec = DeviceSpec::k20c();
  NoShared smem;
  const simt::BlockResult coro =
      simt::run_block(spec, 0, 1, 64, [&](ThreadCtx& ctx) -> KernelTask {
        return two_phase_kernel(ctx, smem);
      });

  simt::PhaseBlock blk(spec, 64);
  for (std::uint32_t t = 0; t < 64; ++t) {
    simt::PhaseCounters c;
    simt::Lane(&c).alu(t % 5);
    blk.fold(t, c);
  }
  blk.uniform().smem(1);
  blk.barrier();
  for (std::uint32_t t = 3; t < 64; t += 16) {
    simt::PhaseCounters c;
    simt::Lane(&c).gmem_txn(t);
    blk.fold(t, c);
  }
  const simt::BlockResult phase = blk.finish();
  expect_same_charge(phase, coro);
  EXPECT_EQ(phase.resumes, coro.resumes);
}

TEST(Primitives, DeviceScanMatchesStd) {
  Device dev;
  for (std::size_t n : {1u, 100u, 16384u, 16385u, 100000u}) {
    simt::Buffer<std::uint32_t> data(dev, n);
    std::vector<std::uint32_t> host(n);
    for (std::size_t i = 0; i < n; ++i) {
      host[i] = static_cast<std::uint32_t>((i * 2654435761u) % 7);
      data[i] = host[i];
    }
    simt::device_inclusive_scan(dev, data.span());
    std::partial_sum(host.begin(), host.end(), host.begin());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], host[i]) << "n=" << n << " i=" << i;
    }
  }
}

// --- cost model -------------------------------------------------------------

KernelTask imbalance_kernel(ThreadCtx& ctx, NoShared&, std::uint64_t total,
                            bool balanced) {
  const std::uint32_t tid = ctx.thread_id();
  if (balanced) {
    ctx.alu(total / ctx.block_dim());
  } else if (tid == 0) {
    ctx.alu(total);  // all work on one lane
  }
  co_await ctx.sync();
  co_return;
}

TEST(PerfModel, ImbalanceCostsMoreThanBalance) {
  // Same total work; the lock-step max-over-lanes term must make the
  // imbalanced variant far slower — the effect the paper's load-balancing
  // heuristic (Fig. 7) exploits.
  Device dev_bal, dev_imb;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 256;
  const auto bal = simt::launch<NoShared>(dev_bal, cfg, imbalance_kernel,
                                          std::uint64_t{1} << 20, true);
  const auto imb = simt::launch<NoShared>(dev_imb, cfg, imbalance_kernel,
                                          std::uint64_t{1} << 20, false);
  EXPECT_GT(imb.modeled_seconds, 2.0 * bal.modeled_seconds);
}

TEST(PerfModel, MoreBlocksMoreTime) {
  Device dev;
  std::vector<double> one{1e6};
  std::vector<double> many(400, 1e6);
  const double t1 = simt::launch_seconds(dev.spec(), one, 0);
  const double tn = simt::launch_seconds(dev.spec(), many, 0);
  EXPECT_GT(tn, t1);
  // A grid smaller than one wave is bounded by its slowest block.
  std::vector<double> wave(4, 1e6);
  EXPECT_NEAR(simt::launch_seconds(dev.spec(), wave, 0), t1, 1e-9);
}

TEST(PerfModel, K40BeatsK20OnSameWork) {
  std::vector<double> blocks(1000, 5e5);
  const double k20 = simt::launch_seconds(DeviceSpec::k20c(), blocks, 0);
  const double k40 = simt::launch_seconds(DeviceSpec::k40(), blocks, 0);
  EXPECT_LT(k40, k20);
}

TEST(Ledger, SnapshotRollback) {
  Device dev;
  dev.ledger().add_kernel_seconds(1.0);
  const auto snap = dev.ledger().snapshot();
  dev.ledger().add_kernel_seconds(5.0);
  dev.ledger().add_transfer_seconds(2.0);
  dev.ledger().rollback(snap);
  EXPECT_DOUBLE_EQ(dev.ledger().kernel_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(dev.ledger().transfer_seconds(), 0.0);
  EXPECT_EQ(dev.ledger().kernels_launched(), 1u);  // one launch pre-snapshot
}

TEST(Buffer, UploadDownloadAccountTransfers) {
  Device dev;
  simt::Buffer<std::uint32_t> buf(dev, 1000);
  std::vector<std::uint32_t> host(1000, 7);
  buf.upload(host);
  const auto back = buf.download(1000);
  EXPECT_EQ(back, host);
  EXPECT_GT(dev.ledger().transfer_seconds(), 0.0);
  buf.zero();
  EXPECT_EQ(buf[500], 0u);
}

}  // namespace
}  // namespace gm
