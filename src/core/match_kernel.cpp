#include "core/match_kernel.h"

#include <algorithm>
#include <vector>

#include "core/balance.h"
#include "core/host_stitch.h"
#include "simt/executor.h"
#include "util/bits.h"

namespace gm::core {
namespace {

// Seed-wise right extension (Section III-B2): grow λ in ℓs jumps while the
// next reference/query seeds match, stopping at a mismatch or once λ >= w so
// the triplet connects to the next co-diagonal hit.
void extend_right_seedwise(simt::Lane& lane, const seq::Sequence& ref,
                           const seq::Sequence& query, mem::Mem& t,
                           std::uint32_t w, std::uint32_t seed_len) {
  while (t.len < w) {
    const std::uint64_t rn = static_cast<std::uint64_t>(t.r) + t.len;
    const std::uint64_t qn = static_cast<std::uint64_t>(t.q) + t.len;
    if (rn + seed_len > ref.size() || qn + seed_len > query.size()) break;
    lane.alu(2);
    lane.gmem_txn(2);  // two random window reads
    if (ref.kmer(rn, seed_len) != query.kmer(qn, seed_len)) break;
    t.len += seed_len;
  }
}

// Block-local state: the kernel's shared arrays plus the per-thread values
// that cross a barrier. One per host worker, reused across blocks.
struct MatchWorkspace {
  // τ + 1: seed g is served by threads [assign[g], assign[g+1]).
  std::vector<std::uint32_t> assign;
  std::vector<std::uint32_t> seed_cnt;   // τ: load of each round seed
  std::vector<std::uint32_t> seed_off;   // τ: scratch offset of each seed
  std::vector<std::uint64_t> load_scan;  // τ: load, then its exclusive sum
  std::vector<std::uint64_t> task_scan;  // τ: task flag, then its exclusive sum
  std::vector<std::uint32_t> group;      // τ: seed served by each thread
  std::vector<std::uint32_t> h0, h1;     // τ: each thread's hits in its seed
};

}  // namespace

// One block of the kernel, loop-fissioned at its barriers (simt::PhaseBlock):
// each barrier-free region is one loop over the thread ids in ascending
// order, which keeps the atomic append order and the combine's in-place
// merges those of a block scheduler resuming threads in id order. A round's
// expansion runs in the same phase as the next round's seed lookup (no
// barrier parts them), so the two share one loop.
simt::BlockResult run_match_block(const simt::DeviceSpec& spec,
                                  std::uint32_t b, std::uint32_t tau,
                                  const MatchParams& P) {
  simt::PhaseBlock blk(spec, tau);
  const seq::Sequence& R = *P.ref;
  const seq::Sequence& Q = *P.query;
  const seq::PackedSeq pR(R), pQ(Q);

  const std::uint32_t q0b = P.tile.q0 + b * P.block_width;
  const std::uint32_t q1b =
      std::max(q0b, std::min(q0b + P.block_width, P.tile.q1));
  const Rect brect{P.tile.r0, P.tile.r1, q0b, q1b};

  // Thread 0 clears the shared arrays; nothing is charged but the barrier.
  thread_local MatchWorkspace ws;
  ws.assign.assign(tau + 1, 0);
  ws.seed_cnt.assign(tau, 0);
  ws.seed_off.assign(tau, 0);
  ws.load_scan.assign(tau, 0);
  ws.task_scan.assign(tau, 0);
  ws.group.assign(tau, 0);
  ws.h0.assign(tau, 0);
  ws.h1.assign(tau, 0);
  if (!P.load_balance) {
    // Thread g serves seed g alone: the identity assignment.
    for (std::uint32_t g = 0; g <= tau; ++g) ws.assign[g] = g;
  }
  blk.barrier();

  const std::span<mem::Mem> scratch =
      P.scratch.subspan(static_cast<std::size_t>(b) * P.round_capacity,
                        P.round_capacity);

  // --- expansion + in-block / out-block classification --------------------
  const auto expand = [&](std::uint32_t tid, simt::Lane& lane) {
    const std::uint32_t off = ws.seed_off[ws.group[tid]];
    for (std::uint32_t s = ws.h0[tid]; s < ws.h1[tid]; ++s) {
      const mem::Mem t = scratch[off + s];
      if (t.len == 0) continue;
      const mem::Mem e = expand_clamped(pR, pQ, t, brect);
      lane.alu(e.len / 8 + 4);
      lane.gmem_txn(2 + e.len / 64);  // dependent window reads
      lane.gmem(e.len / 2);           // streaming comparison traffic
      if (touches_edge(e, brect)) {
        const std::uint32_t idx =
            simt::atomic_fetch_add(&P.outblock_count[0], 1u);
        if (idx < P.outblock.size()) P.outblock[idx] = e;
        lane.atomic_op();
        lane.gmem_txn(1);
      } else if (e.len >= P.min_len) {
        const std::uint32_t idx =
            simt::atomic_fetch_add(&P.inblock_count[0], 1u);
        if (idx < P.inblock.size()) P.inblock[idx] = e;
        lane.atomic_op();
        lane.gmem_txn(1);
      }
    }
  };

  bool expansion_due = false;  // the last round's triplets await expansion
  for (std::uint32_t round = 0; round < P.w; ++round) {
    // --- original thread/seed assignment -----------------------------------
    for (std::uint32_t tid = 0; tid < tau; ++tid) {
      simt::PhaseCounters c;
      simt::Lane lane(&c);
      if (expansion_due) expand(tid, lane);
      const std::uint64_t j64 = static_cast<std::uint64_t>(q0b) + round +
                                static_cast<std::uint64_t>(tid) * P.w;
      std::uint32_t load = 0;
      if (j64 < q1b && j64 + P.seed_len <= Q.size()) {
        const std::uint64_t seed = Q.kmer(j64, P.seed_len);
        load = P.ptrs[seed + 1] - P.ptrs[seed];
        lane.alu(P.seed_len / 8 + 2);
        lane.gmem_txn(2);  // query window + ptrs pair
      }
      ws.seed_cnt[tid] = load;
      ws.load_scan[tid] = load;
      blk.fold(tid, c);
    }
    blk.uniform().smem(1);  // seed_cnt[tid] = load
    expansion_due = false;
    const std::uint64_t total = blk.scan(ws.load_scan);
    for (std::uint32_t tid = 0; tid < tau; ++tid) {
      ws.seed_off[tid] = static_cast<std::uint32_t>(ws.load_scan[tid]);
    }
    blk.uniform().smem(1);
    if (total == 0) continue;  // uniform across the block
    if (total > P.round_capacity) {
      P.overflow[static_cast<std::size_t>(b) * P.w + round] = 1;
      continue;  // host fallback handles this round
    }

    // --- proactive load balancing (Algorithm 2) -----------------------------
    if (P.load_balance) {
      for (std::uint32_t tid = 0; tid < tau; ++tid) {
        ws.task_scan[tid] = ws.seed_cnt[tid] > 0 ? 1u : 0u;
      }
      const std::uint64_t idle = tau - blk.scan(ws.task_scan);
      for (std::uint32_t tid = 0; tid < tau; ++tid) {
        const std::uint32_t load = ws.seed_cnt[tid];
        const std::uint32_t task = load > 0 ? 1u : 0u;
        const std::uint64_t load_incl = ws.load_scan[tid] + load;
        const std::uint32_t task_incl =
            static_cast<std::uint32_t>(ws.task_scan[tid]) + task;
        ws.assign[tid + 1] =
            task_incl + static_cast<std::uint32_t>(idle * load_incl / total);
      }
      ws.assign[0] = 0;
      blk.uniform().alu(6);
      blk.uniform().smem(2);
      blk.barrier();
      // group[tid] = last g with assign[g] <= tid. assign is monotone with
      // assign[τ] == τ, so one sweep over it finds every thread's group; each
      // thread is charged the binary search a device thread would run.
      std::uint32_t g = 0;
      for (std::uint32_t tid = 0; tid < tau; ++tid) {
        while (ws.assign[g + 1] <= tid) ++g;
        ws.group[tid] = g;
      }
      blk.uniform().alu(util::ceil_log2(tau) + 1);
      blk.uniform().smem(util::ceil_log2(tau) + 1);
      blk.barrier();
    } else {
      for (std::uint32_t tid = 0; tid < tau; ++tid) ws.group[tid] = tid;
      blk.barrier();
    }

    // --- triplet generation + seed-wise extension ---------------------------
    for (std::uint32_t tid = 0; tid < tau; ++tid) {
      const std::uint32_t g = ws.group[tid];
      const std::uint32_t cnt = ws.seed_cnt[g];
      std::uint32_t h0 = 0, h1 = 0;
      if (cnt > 0) {
        simt::PhaseCounters c;
        simt::Lane lane(&c);
        const std::uint32_t off = ws.seed_off[g];
        const std::uint64_t jg = static_cast<std::uint64_t>(q0b) + round +
                                 static_cast<std::uint64_t>(g) * P.w;
        split_work(cnt, ws.assign[g + 1] - ws.assign[g], tid - ws.assign[g],
                   h0, h1);
        const std::uint64_t gseed = Q.kmer(jg, P.seed_len);
        const std::uint32_t gbase = P.ptrs[gseed];
        lane.gmem_txn(2);
        for (std::uint32_t h = h0; h < h1; ++h) {
          const std::uint32_t p = P.locs[gbase + h];
          mem::Mem t{p, static_cast<std::uint32_t>(jg), P.seed_len};
          extend_right_seedwise(lane, R, Q, t, P.w, P.seed_len);
          scratch[off + h] = t;
          lane.alu(6);       // per-hit triplet setup / address arithmetic
          lane.gmem_txn(2);  // locs read + scratch write
        }
        blk.fold(tid, c);
      }
      ws.h0[tid] = h0;
      ws.h1[tid] = h1;
    }
    blk.barrier();

    // --- combine (Algorithm 3): 2·log2(τ) − 1 iterations --------------------
    // Iteration `iter` merges seed g into g + d for g = 0, 2d, 4d, ... (the
    // first k) or g = d, 3d, ... (the rest). Only those seeds' threads with
    // hits work; every other thread just passes the barrier, so each phase
    // is sparse and visits only the merging threads.
    if (P.combine) {
      const std::uint32_t k = util::floor_log2(tau);
      std::uint32_t d = 1;
      for (std::uint32_t iter = 1; iter <= 2 * k - 1; ++iter) {
        for (std::uint32_t g = iter > k ? d : 0; g + d < tau; g += 2 * d) {
          const std::uint32_t off = ws.seed_off[g];
          const std::uint32_t tcnt = ws.seed_cnt[g + d];
          const std::uint32_t toff = ws.seed_off[g + d];
          for (std::uint32_t tid = ws.assign[g]; tid < ws.assign[g + 1];
               ++tid) {
            if (ws.h0[tid] >= ws.h1[tid]) continue;
            simt::PhaseCounters c;
            for (std::uint32_t s = ws.h0[tid]; s < ws.h1[tid]; ++s) {
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
              simt::Lane lane(&c);
              lane.alu(3 * static_cast<std::uint64_t>(tcnt) + 2);
              lane.gmem_txn(tcnt);
            }
            blk.fold(tid, c);
          }
        }
        blk.sparse_barrier();
        d = (iter < k) ? d * 2 : d / 2;
      }
    }
    expansion_due = true;
  }
  if (expansion_due) {
    for (std::uint32_t tid = 0; tid < tau; ++tid) {
      simt::PhaseCounters c;
      simt::Lane lane(&c);
      expand(tid, lane);
      blk.fold(tid, c);
    }
  }
  return blk.finish();
}

void launch_match_kernel(simt::Device& dev, std::uint32_t grid,
                         std::uint32_t threads, const MatchParams& params) {
  simt::LaunchConfig cfg;
  cfg.grid = grid;
  cfg.block = threads;
  cfg.label = "match";
  simt::launch_blocks(dev, cfg, [&](std::uint32_t b) {
    return run_match_block(dev.spec(), b, threads, params);
  });
}

void process_round_host(const MatchParams& P, std::uint32_t block,
                        std::uint32_t round, std::uint32_t threads,
                        std::vector<mem::Mem>& inblock_out,
                        std::vector<mem::Mem>& outblock_out) {
  const seq::Sequence& R = *P.ref;
  const seq::Sequence& Q = *P.query;
  const std::uint32_t q0b = P.tile.q0 + block * P.block_width;
  const std::uint32_t q1b =
      std::max(q0b, std::min(q0b + P.block_width, P.tile.q1));
  const Rect brect{P.tile.r0, P.tile.r1, q0b, q1b};
  const std::uint32_t w = P.w;
  const seq::PackedSeq pR(R), pQ(Q);

  for (std::uint32_t k = 0; k < threads; ++k) {
    const std::uint64_t j = static_cast<std::uint64_t>(q0b) + round +
                            static_cast<std::uint64_t>(k) * w;
    if (j >= q1b || j + P.seed_len > Q.size()) continue;
    const std::uint64_t seed = Q.kmer(j, P.seed_len);
    const std::uint32_t lo = P.ptrs[seed], hi = P.ptrs[seed + 1];
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::uint32_t p = P.locs[i];
      // Skip chain-interior hits: if the previous co-diagonal grid hit also
      // lies inside this block (characters match at least w back, within the
      // block rectangle), the chain head handles this MEM.
      const std::size_t back_room =
          std::min<std::size_t>(p - brect.r0, j - brect.q0);
      std::size_t back = 0;
      if (p > 0 && j > 0) {
        back = pR.lce_backward(p - 1, pQ, j - 1, back_room);
      }
      if (back >= w) continue;
      mem::Mem t{p, static_cast<std::uint32_t>(j), P.seed_len};
      const mem::Mem e = expand_clamped(pR, pQ, t, brect);
      if (touches_edge(e, brect)) {
        outblock_out.push_back(e);
      } else if (e.len >= P.min_len) {
        inblock_out.push_back(e);
      }
    }
  }
}

}  // namespace gm::core
