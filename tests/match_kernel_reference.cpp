// The coroutine form of the match kernel, kept as the reference the
// phase-form production kernel (src/core/match_kernel.cpp) is checked
// against: one coroutine per logical thread, driven by simt::run_block.
// Same work, same barriers, same accounting; test_match_kernel asserts
// bit-equal BlockResults and outputs.
#include "match_kernel_reference.h"

#include <algorithm>
#include <vector>

#include "core/balance.h"
#include "core/host_stitch.h"
#include "simt/executor.h"
#include "util/bits.h"

namespace gm::core {
namespace {

struct MatchShared {
  std::vector<std::uint32_t> assign;    // τ + 1
  std::vector<std::uint32_t> seed_cnt;  // τ: load of each round seed
  std::vector<std::uint32_t> seed_off;  // τ: exclusive load prefix (scratch offset)
  std::vector<std::uint32_t> group;     // τ: seed served by each thread
};

// Seed-wise right extension (Section III-B2): grow λ in ℓs jumps while the
// next reference/query seeds match, stopping at a mismatch or once λ >= w so
// the triplet connects to the next co-diagonal hit.
void extend_right_seedwise(simt::ThreadCtx& ctx, const seq::Sequence& ref,
                           const seq::Sequence& query, mem::Mem& t,
                           std::uint32_t w, std::uint32_t seed_len) {
  while (t.len < w) {
    const std::uint64_t rn = static_cast<std::uint64_t>(t.r) + t.len;
    const std::uint64_t qn = static_cast<std::uint64_t>(t.q) + t.len;
    if (rn + seed_len > ref.size() || qn + seed_len > query.size()) break;
    ctx.alu(2);
    ctx.gmem_txn(2);  // two random window reads
    if (ref.kmer(rn, seed_len) != query.kmer(qn, seed_len)) break;
    t.len += seed_len;
  }
}

simt::KernelTask match_kernel(simt::ThreadCtx& ctx, MatchShared& smem,
                              const MatchParams& P) {
  const std::uint32_t tau = ctx.block_dim();
  const std::uint32_t tid = ctx.thread_id();
  const std::uint32_t b = ctx.block_id();
  const seq::Sequence& R = *P.ref;
  const seq::Sequence& Q = *P.query;

  const std::uint32_t q0b = P.tile.q0 + b * P.block_width;
  const std::uint32_t q1b =
      std::max(q0b, std::min(q0b + P.block_width, P.tile.q1));
  const Rect brect{P.tile.r0, P.tile.r1, q0b, q1b};

  if (tid == 0) {
    smem.assign.assign(tau + 1, 0);
    smem.seed_cnt.assign(tau, 0);
    smem.seed_off.assign(tau, 0);
    smem.group.assign(tau, 0);
  }
  co_await ctx.sync();

  const std::span<mem::Mem> scratch =
      P.scratch.subspan(static_cast<std::size_t>(b) * P.round_capacity,
                        P.round_capacity);

  for (std::uint32_t round = 0; round < P.w; ++round) {
    // --- original thread/seed assignment -----------------------------------
    const std::uint64_t j64 = static_cast<std::uint64_t>(q0b) + round +
                              static_cast<std::uint64_t>(tid) * P.w;
    std::uint32_t load = 0;
    if (j64 < q1b && j64 + P.seed_len <= Q.size()) {
      const std::uint64_t seed = Q.kmer(j64, P.seed_len);
      load = P.ptrs[seed + 1] - P.ptrs[seed];
      ctx.alu(P.seed_len / 8 + 2);
      ctx.gmem_txn(2);  // query window + ptrs pair
    }
    smem.seed_cnt[tid] = load;
    ctx.smem(1);
    const simt::ScanResult load_scan = co_await ctx.scan_add(load);
    smem.seed_off[tid] = static_cast<std::uint32_t>(load_scan.exclusive);
    ctx.smem(1);
    const std::uint64_t total = load_scan.total;
    if (total == 0) continue;  // uniform across the block
    if (total > P.round_capacity) {
      if (tid == 0) P.overflow[static_cast<std::size_t>(b) * P.w + round] = 1;
      continue;  // host fallback handles this round
    }

    // --- proactive load balancing (Algorithm 2) -----------------------------
    std::uint32_t g, rank, servers;
    if (P.load_balance) {
      const std::uint32_t task = load > 0 ? 1u : 0u;
      const simt::ScanResult task_scan = co_await ctx.scan_add(task);
      const std::uint64_t idle = tau - task_scan.total;
      const std::uint64_t load_incl = load_scan.exclusive + load;
      const std::uint32_t task_incl =
          static_cast<std::uint32_t>(task_scan.exclusive) + task;
      smem.assign[tid + 1] =
          task_incl + static_cast<std::uint32_t>(idle * load_incl / total);
      if (tid == 0) smem.assign[0] = 0;
      ctx.alu(6);
      ctx.smem(2);
      co_await ctx.sync();
      // group[tid] = binarySearch(assign, tid): last g with assign[g] <= tid.
      {
        std::uint32_t lo = 0, hi = tau;  // invariant: assign[lo] <= tid < assign[hi+1]
        while (lo < hi) {
          const std::uint32_t mid = (lo + hi + 1) / 2;
          if (smem.assign[mid] <= tid) {
            lo = mid;
          } else {
            hi = mid - 1;
          }
        }
        g = lo;
        ctx.alu(util::ceil_log2(tau) + 1);
        ctx.smem(util::ceil_log2(tau) + 1);
      }
      smem.group[tid] = g;
      co_await ctx.sync();
      servers = smem.assign[g + 1] - smem.assign[g];
      rank = tid - smem.assign[g];
    } else {
      g = tid;
      rank = 0;
      servers = 1;
      smem.group[tid] = g;
      co_await ctx.sync();
    }

    // --- triplet generation + seed-wise extension ---------------------------
    const std::uint32_t cnt = smem.seed_cnt[g];
    const std::uint32_t off = smem.seed_off[g];
    std::uint32_t h0 = 0, h1 = 0;
    const std::uint64_t jg = static_cast<std::uint64_t>(q0b) + round +
                             static_cast<std::uint64_t>(g) * P.w;
    if (cnt > 0) {
      split_work(cnt, servers, rank, h0, h1);
      const std::uint64_t gseed = Q.kmer(jg, P.seed_len);
      const std::uint32_t gbase = P.ptrs[gseed];
      ctx.gmem_txn(2);
      for (std::uint32_t h = h0; h < h1; ++h) {
        const std::uint32_t p = P.locs[gbase + h];
        mem::Mem t{p, static_cast<std::uint32_t>(jg), P.seed_len};
        extend_right_seedwise(ctx, R, Q, t, P.w, P.seed_len);
        scratch[off + h] = t;
        ctx.alu(6);       // per-hit triplet setup / address arithmetic
        ctx.gmem_txn(2);  // locs read + scratch write
      }
    }
    co_await ctx.sync();

    // --- combine (Algorithm 3): 2·log2(τ) − 1 iterations --------------------
    // A thread's group and hit range are fixed for the whole combine, so it
    // knows in advance in which iterations it merges; it sleeps through the
    // barriers of the others (ctx.sync(n)) and still passes all 2k − 1.
    if (P.combine) {
      const std::uint32_t k = util::floor_log2(tau);
      const std::int64_t src = g;
      std::uint32_t d = 1;
      std::uint32_t owed = 0;  // barriers this thread has yet to pass
      for (std::uint32_t iter = 1; iter <= 2 * k - 1; ++iter) {
        const std::int64_t c = iter > k ? src - d : src;
        if (h0 < h1 && c >= 0 && (c & (2 * std::int64_t{d} - 1)) == 0 &&
            src + d < tau) {
          co_await ctx.sync(owed);
          owed = 0;
          const std::uint64_t trgt = static_cast<std::uint64_t>(src) + d;
          const std::uint32_t tcnt = smem.seed_cnt[trgt];
          const std::uint32_t toff = smem.seed_off[trgt];
          for (std::uint32_t s = h0; s < h1; ++s) {
            mem::Mem& mine = scratch[off + s];
            if (mine.len == 0) continue;
            for (std::uint32_t t = 0; t < tcnt; ++t) {
              mem::Mem& other = scratch[toff + t];
              if (other.len == 0) continue;
              const std::int64_t dr = static_cast<std::int64_t>(other.r) -
                                      static_cast<std::int64_t>(mine.r);
              const std::int64_t dq = static_cast<std::int64_t>(other.q) -
                                      static_cast<std::int64_t>(mine.q);
              if (dr == dq && dr > 0 &&
                  dr <= static_cast<std::int64_t>(mine.len)) {
                mine.len = std::max<std::uint32_t>(
                    mine.len, static_cast<std::uint32_t>(dr) + other.len);
                other.len = 0;
              }
            }
            ctx.alu(3 * static_cast<std::uint64_t>(tcnt) + 2);
            ctx.gmem_txn(tcnt);
          }
        }
        ++owed;  // this iteration's barrier
        d = (iter < k) ? d * 2 : d / 2;
      }
      co_await ctx.sync(owed);
    }

    // --- expansion + in-block / out-block classification --------------------
    const seq::PackedSeq pR(R), pQ(Q);
    for (std::uint32_t s = h0; s < h1; ++s) {
      const mem::Mem t = scratch[off + s];
      if (t.len == 0) continue;
      const mem::Mem e = expand_clamped(pR, pQ, t, brect);
      ctx.alu(e.len / 8 + 4);
      ctx.gmem_txn(2 + e.len / 64);  // dependent window reads along the match
      ctx.gmem(e.len / 2);           // streaming comparison traffic
      if (touches_edge(e, brect)) {
        const std::uint32_t idx =
            simt::atomic_fetch_add(&P.outblock_count[0], 1u);
        if (idx < P.outblock.size()) P.outblock[idx] = e;
        ctx.atomic_op();
        ctx.gmem_txn(1);
      } else if (e.len >= P.min_len) {
        const std::uint32_t idx =
            simt::atomic_fetch_add(&P.inblock_count[0], 1u);
        if (idx < P.inblock.size()) P.inblock[idx] = e;
        ctx.atomic_op();
        ctx.gmem_txn(1);
      }
    }
  }
}

}  // namespace

simt::BlockResult run_match_block_reference(const simt::DeviceSpec& spec,
                                            std::uint32_t block,
                                            std::uint32_t grid,
                                            std::uint32_t threads,
                                            const MatchParams& params) {
  MatchShared smem;
  return simt::run_block(spec, block, grid, threads,
                         [&](simt::ThreadCtx& ctx) -> simt::KernelTask {
                           return match_kernel(ctx, smem, params);
                         });
}

}  // namespace gm::core
