// GPUMEM core component tests: configuration (Eq. 1), the load-balancing
// heuristic (Algorithm 2), host stitch helpers, and the device index
// construction (Algorithm 1) against the host KmerIndex.
#include <gtest/gtest.h>

#include "core/balance.h"
#include "core/config.h"
#include "core/host_stitch.h"
#include "core/index_kernels.h"
#include "index/kmer_index.h"
#include "mem/common.h"
#include "mem/naive.h"
#include "seq/synthetic.h"
#include "util/cli.h"
#include "util/rng.h"

namespace gm {
namespace {

using core::Config;

TEST(Config, AutoStepIsEquationOneMaximum) {
  Config cfg;
  cfg.min_length = 50;
  cfg.seed_len = 13;
  const auto g = cfg.validated();
  EXPECT_EQ(g.step, 38u);  // L - ls + 1
  EXPECT_EQ(g.w, g.step);
  EXPECT_EQ(g.block_width, cfg.threads * g.w);
  EXPECT_EQ(g.tile_len, cfg.tile_blocks * g.block_width);
}

TEST(Config, RejectsEquationOneViolation) {
  Config cfg;
  cfg.min_length = 20;
  cfg.seed_len = 10;
  cfg.step = 12;  // > L - ls + 1 = 11
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg.step = 11;
  EXPECT_NO_THROW(cfg.validated());
}

TEST(Config, RejectsBadParameters) {
  Config cfg;
  cfg.min_length = 0;
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg = Config{};
  cfg.seed_len = 17;
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg = Config{};
  cfg.seed_len = 30;
  cfg.min_length = 20;
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg = Config{};
  cfg.threads = 96;  // not a power of two
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg = Config{};
  cfg.tile_blocks = 0;
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
}

TEST(Config, RejectsZeroCapacities) {
  Config cfg;
  cfg.round_capacity = 0;
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg = Config{};
  cfg.output_capacity = 0;
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
}

TEST(Config, RejectsTileGeometryOverflow) {
  // tau * delta_s * n_block computed in 32 bits would silently wrap; the
  // validator must reject it instead of corrupting every tile Rect.
  Config cfg;
  cfg.min_length = 1u << 20;
  cfg.seed_len = 16;  // auto step ~= 2^20
  cfg.threads = 1u << 10;
  cfg.tile_blocks = 1u << 4;  // tile_len64 ~= 2^34 > 2^31
  EXPECT_THROW(cfg.validated(), std::invalid_argument);
  cfg.tile_blocks = 1;
  cfg.threads = 2;  // 2^21: fine
  EXPECT_NO_THROW(cfg.validated());
}

TEST(Config, DescribeMentionsKeyParameters) {
  Config cfg;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("L="), std::string::npos);
  EXPECT_NE(d.find("tau="), std::string::npos);
}

TEST(Config, EngineFlagsReadOneNameEach) {
  Config defaults;
  defaults.min_length = 50;
  defaults.seed_len = 13;
  {
    // Unset flags keep the defaults; an unset --seed-len is capped at L.
    const char* argv[] = {"prog", "--min-len", "10", "--tau", "64",
                          "--tile-blocks", "8", "--overlap-streams", "3"};
    const util::Cli cli(9, const_cast<char**>(argv));
    const Config cfg = core::engine_flags(cli, defaults);
    EXPECT_EQ(cfg.min_length, 10u);
    EXPECT_EQ(cfg.seed_len, 10u);
    EXPECT_EQ(cfg.threads, 64u);
    EXPECT_EQ(cfg.tile_blocks, 8u);
    EXPECT_EQ(cfg.overlap_streams, 3u);
    EXPECT_EQ(cfg.step, 0u);
  }
  // A value that does not fit the field is refused, not wrapped.
  for (const char* bad : {"-5", "4294967316"}) {
    const char* argv[] = {"prog", "--min-len", bad};
    const util::Cli cli(3, const_cast<char**>(argv));
    EXPECT_THROW((void)core::engine_flags(cli, defaults),
                 std::invalid_argument)
        << bad;
  }
}

// --- Algorithm 2 -------------------------------------------------------------

TEST(Balance, AllZeroLoadsIdentity) {
  const std::vector<std::uint32_t> loads(8, 0);
  const auto r = core::balance_assign(loads);
  for (std::uint32_t t = 0; t < 8; ++t) EXPECT_EQ(r.group[t], t);
}

TEST(Balance, CoversEveryThreadExactlyOnce) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> loads(64);
    for (auto& l : loads) {
      l = rng.chance(0.5) ? 0 : static_cast<std::uint32_t>(rng.bounded(100));
    }
    const auto r = core::balance_assign(loads);
    ASSERT_EQ(r.assign.front(), 0u);
    ASSERT_EQ(r.assign.back(), 64u);
    for (std::size_t k = 0; k + 1 < r.assign.size(); ++k) {
      ASSERT_LE(r.assign[k], r.assign[k + 1]);
      if (loads[k] == 0) {
        EXPECT_EQ(r.assign[k], r.assign[k + 1]);
      }
    }
    for (std::uint32_t tid = 0; tid < 64; ++tid) {
      const std::uint32_t g = r.group[tid];
      ASSERT_LE(r.assign[g], tid);
      ASSERT_LT(tid, r.assign[g + 1]);
    }
  }
}

TEST(Balance, IdleThreadsServeLoadedSeeds) {
  // One heavy seed, the rest idle: every thread should serve seed 0.
  std::vector<std::uint32_t> loads(16, 0);
  loads[0] = 1000;
  const auto r = core::balance_assign(loads);
  for (std::uint32_t t = 0; t < 16; ++t) EXPECT_EQ(r.group[t], 0u);
}

TEST(Balance, ProportionalToLoad) {
  // Seed 0 has 9x the load of seed 8: it should get roughly 9x the threads.
  std::vector<std::uint32_t> loads(64, 0);
  loads[0] = 900;
  loads[8] = 100;
  const auto r = core::balance_assign(loads);
  const std::uint32_t heavy = r.assign[1] - r.assign[0];
  const std::uint32_t light = r.assign[9] - r.assign[8];
  EXPECT_GE(heavy, 5 * light);
  EXPECT_GE(light, 1u);
  EXPECT_EQ(heavy + light, 64u);
}

TEST(Balance, MatchesPaperToyExampleShape) {
  // Paper Fig. 2: loaded and idle seeds interleaved; no thread idle after
  // balancing when total load >= tau... (total load 12 over 8 threads).
  const std::vector<std::uint32_t> loads{4, 0, 2, 0, 4, 0, 2, 0};
  const auto r = core::balance_assign(loads);
  // Each loaded seed gets at least one thread; heavy seeds get more.
  EXPECT_GE(r.assign[1] - r.assign[0], r.assign[3] - r.assign[2]);
  std::uint32_t served = 0;
  for (std::uint32_t k = 0; k < 8; ++k) {
    if (loads[k] > 0) {
      EXPECT_GE(r.assign[k + 1] - r.assign[k], 1u) << k;
    }
    served += r.assign[k + 1] - r.assign[k];
  }
  EXPECT_EQ(served, 8u);
}

TEST(Balance, RandomizedInvariantsAcrossBlockSizes) {
  // Algorithm 2 invariants under random load vectors, plus the two
  // degenerate shapes (all-zero, single hot seed), for every block size the
  // sampler can pick: assign starts at 0, ends at tau, is non-decreasing,
  // every nonzero-load seed owns at least one thread, and group[] is the
  // inverse of assign[].
  util::Xoshiro256 rng(17);
  for (const std::uint32_t tau : {2u, 4u, 8u, 64u, 256u}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::uint32_t> loads(tau);
      if (trial == 0) {
        // all-zero
      } else if (trial == 1) {
        loads[rng.bounded(tau)] = 1 + static_cast<std::uint32_t>(
                                          rng.bounded(1u << 16));
      } else {
        for (auto& l : loads) {
          l = rng.chance(0.4)
                  ? 0
                  : static_cast<std::uint32_t>(rng.bounded(1u << 12));
        }
      }
      const auto r = core::balance_assign(loads);
      ASSERT_EQ(r.assign.size(), tau + 1);
      ASSERT_EQ(r.group.size(), tau);
      ASSERT_EQ(r.assign.front(), 0u);
      ASSERT_EQ(r.assign.back(), tau);
      for (std::uint32_t k = 0; k < tau; ++k) {
        ASSERT_LE(r.assign[k], r.assign[k + 1]) << "tau=" << tau;
        if (loads[k] > 0) {
          EXPECT_GE(r.assign[k + 1] - r.assign[k], 1u)
              << "loaded seed " << k << " starved, tau=" << tau;
        }
      }
      for (std::uint32_t tid = 0; tid < tau; ++tid) {
        const std::uint32_t g = r.group[tid];
        ASSERT_LT(g, tau);
        ASSERT_LE(r.assign[g], tid);
        ASSERT_LT(tid, r.assign[g + 1]);
      }
    }
  }
}

TEST(Balance, SplitWorkPartitionsExactly) {
  for (std::uint32_t count : {0u, 1u, 7u, 100u}) {
    for (std::uint32_t servers : {1u, 3u, 8u}) {
      std::uint32_t covered = 0;
      std::uint32_t prev_end = 0;
      for (std::uint32_t rank = 0; rank < servers; ++rank) {
        std::uint32_t b, e;
        core::split_work(count, servers, rank, b, e);
        EXPECT_EQ(b, prev_end);
        prev_end = e;
        covered += e - b;
      }
      EXPECT_EQ(prev_end, count);
      EXPECT_EQ(covered, count);
    }
  }
}

// --- host stitch -------------------------------------------------------------

TEST(HostStitch, ExpandClampedBothDirections) {
  const auto R = seq::Sequence::from_string("TTACGTACGTAA");
  const auto Q = seq::Sequence::from_string("GGACGTACGTCC");
  const core::Rect whole{0, 12, 0, 12};
  // Seed match of length 4 inside the shared "ACGTACGT".
  const mem::Mem e = core::expand_clamped(R, Q, {4, 4, 4}, whole);
  EXPECT_EQ(e, (mem::Mem{2, 2, 8}));
}

TEST(HostStitch, ExpandRespectsClamp) {
  const auto R = seq::Sequence::from_string("ACGTACGTACGT");
  const auto Q = R;
  const core::Rect rect{2, 10, 2, 10};
  const mem::Mem e = core::expand_clamped(R, Q, {4, 4, 2}, rect);
  EXPECT_EQ(e.r, 2u);
  EXPECT_EQ(e.q, 2u);
  EXPECT_EQ(e.len, 8u);
  EXPECT_TRUE(core::touches_edge(e, rect));
}

TEST(HostStitch, ExpandClampsOvershootingInput) {
  const auto R = seq::Sequence::from_string("ACGTACGTACGT");
  const auto Q = R;
  const core::Rect rect{0, 6, 0, 6};
  // Input extends past the rect (verified overshoot from seed extension).
  const mem::Mem e = core::expand_clamped(R, Q, {2, 2, 9}, rect);
  EXPECT_LE(e.r + e.len, rect.r1);
  EXPECT_LE(e.q + e.len, rect.q1);
}

TEST(HostStitch, ExpandClampedPieceStartingLeftOfRect) {
  // Regression: a piece starting left of the clamping Rect used to drive
  // `m.r - rect.r0` into unsigned wrap-around. The overhang must be trimmed
  // and the remainder expanded normally.
  const auto R = seq::Sequence::from_string("ACGTACGTACGT");
  const auto Q = R;
  const core::Rect rect{4, 12, 4, 12};
  const mem::Mem e = core::expand_clamped(R, Q, {2, 2, 6}, rect);
  EXPECT_EQ(e.r, 4u);
  EXPECT_EQ(e.q, 4u);
  EXPECT_EQ(e.len, 8u);  // expands rightward to the rect edge
}

TEST(HostStitch, ExpandClampedPieceWhollyOutsideRect) {
  const auto R = seq::Sequence::from_string("ACGTACGTACGT");
  const auto Q = R;
  // Entirely left of the rectangle: nothing survives the trim.
  EXPECT_EQ(core::expand_clamped(R, Q, {0, 0, 3}, {4, 12, 4, 12}).len, 0u);
  // Entirely right of it: same.
  EXPECT_EQ(core::expand_clamped(R, Q, {8, 8, 4}, {0, 6, 0, 6}).len, 0u);
  // Outside on the query axis only: the shift consumes the whole piece.
  EXPECT_EQ(core::expand_clamped(R, Q, {4, 0, 2}, {0, 12, 4, 12}).len, 0u);
}

TEST(HostStitch, ExpandClampedAsymmetricOverhang) {
  // r inside, q left of the rect: both coordinates shift together by the
  // larger overhang so the match stays on its diagonal.
  const auto R = seq::Sequence::from_string("AACGTACGTACGTT");
  const auto Q = seq::Sequence::from_string("CGTACGTACGT");
  // R[2+i] == Q[0+i] for the shared "CGTACGTACGT".
  const core::Rect rect{0, 14, 3, 11};
  const mem::Mem e = core::expand_clamped(R, Q, {2, 0, 8}, rect);
  EXPECT_EQ(e.q, 3u);
  EXPECT_EQ(e.r, 5u);
  EXPECT_EQ(e.r - e.q, 2u);  // diagonal preserved
  EXPECT_GE(e.len, 5u);
  EXPECT_LE(e.q + e.len, rect.q1);
}

TEST(HostStitch, CombineChainsMergesRuns) {
  std::vector<mem::Mem> t{
      {10, 5, 10},   // diag 5
      {20, 15, 8},   // diag 5, touches previous end (10+10=20 = q 15+5)
      {40, 35, 6},   // diag 5, disjoint (gap)
      {10, 6, 10},   // diag 4
  };
  core::combine_chains(t);
  mem::sort_mems(t);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], (mem::Mem{10, 5, 18}));  // merged run
  EXPECT_EQ(t[1], (mem::Mem{10, 6, 10}));
  EXPECT_EQ(t[2], (mem::Mem{40, 35, 6}));
}

TEST(HostStitch, CombineChainsAbsorbsDuplicates) {
  std::vector<mem::Mem> t{{10, 5, 10}, {10, 5, 10}, {10, 5, 10}};
  core::combine_chains(t);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], (mem::Mem{10, 5, 10}));
}

TEST(HostStitch, FinalizeExpandsAndFilters) {
  const auto base = seq::GenomeModel{.length = 2000}.generate(3);
  const auto R = base;
  const auto Q = base;  // identical: the full-length MEM exists
  // Two mid-sequence pieces of the one giant diagonal chain.
  std::vector<mem::Mem> pieces{{100, 100, 50}, {150, 150, 40}};
  const auto out = core::finalize_out_tile(R, Q, pieces, 100);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (mem::Mem{0, 0, 2000}));
}

TEST(HostStitch, EquationOneBoundIsTight) {
  // With step = L - ls + 2 (one past Eq. 1), a MEM of length exactly L can
  // contain no sampled seed: sampled-candidate emission misses it. This
  // demonstrates why Config rejects such steps.
  const std::uint32_t L = 8, ls = 4;
  const std::uint32_t bad_step = L - ls + 2;  // 6
  // Build R/Q with a MEM of length exactly 8 at r=1 (between grid points 0
  // and 6... grid hits at p=6 only partially inside).
  //      R: C ACGTACGT C...   MEM body R[1..9)
  const auto R = seq::Sequence::from_string("CACGTACGTCCCCCCC");
  const auto Q = seq::Sequence::from_string("GACGTACGTGGGGGGG");
  const auto truth = mem::find_mems_naive(R, Q, L);
  ASSERT_EQ(truth.size(), 1u);  // the length-8 MEM

  // Emulate sampled-candidate generation at the bad step: for a hit the
  // sampled position p must have p % bad_step == 0, p+ls inside the MEM.
  std::vector<mem::Mem> found;
  for (std::uint32_t p = 0; p + ls <= R.size(); p += bad_step) {
    for (std::uint32_t j = 0; j + ls <= Q.size(); ++j) {
      if (R.common_prefix(p, Q, j, ls) == ls) {
        mem::emit_sampled_candidate(R, Q, p, j, bad_step, L, found);
      }
    }
  }
  EXPECT_TRUE(found.empty()) << "step beyond Eq. 1 silently loses the MEM";

  // At the Eq. 1 maximum the MEM is found.
  const std::uint32_t good_step = L - ls + 1;  // 5
  for (std::uint32_t p = 0; p + ls <= R.size(); p += good_step) {
    for (std::uint32_t j = 0; j + ls <= Q.size(); ++j) {
      if (R.common_prefix(p, Q, j, ls) == ls) {
        mem::emit_sampled_candidate(R, Q, p, j, good_step, L, found);
      }
    }
  }
  mem::sort_unique(found);
  EXPECT_EQ(found, truth);
}

// --- Algorithm 1 on the device ----------------------------------------------

TEST(IndexKernels, MatchesHostKmerIndex) {
  const auto ref = seq::GenomeModel{.length = 30000}.generate(11);
  simt::Device dev;
  const std::vector<std::pair<unsigned, std::uint32_t>> cases{
      {8u, 5u}, {10u, 1u}, {6u, 13u}};
  for (const auto& [seed_len, step] : cases) {
    core::DeviceIndex didx(dev, seed_len, step,
                           static_cast<std::uint32_t>(ref.size() / step) + 2);
    core::build_partial_index(dev, ref, 0, ref.size(), 128, didx);
    const index::KmerIndex hidx(ref, 0, ref.size(), seed_len, step);
    ASSERT_EQ(didx.n_locs, hidx.locs().size());
    // ptrs must match after the shift convention, and locs exactly.
    for (std::size_t s = 0; s < hidx.ptrs().size(); ++s) {
      ASSERT_EQ(didx.ptrs[s], hidx.ptrs()[s]) << "seed " << s;
    }
    for (std::size_t i = 0; i < hidx.locs().size(); ++i) {
      ASSERT_EQ(didx.locs[i], hidx.locs()[i]) << "loc " << i;
    }
  }
}

TEST(IndexKernels, TileRangesTileTheGrid) {
  const auto ref = seq::GenomeModel{.length = 10000}.generate(12);
  simt::Device dev;
  const unsigned seed_len = 8;
  const std::uint32_t step = 7;
  // Index three adjacent ranges; their unions must equal the full index.
  std::vector<std::uint32_t> all_locs;
  for (std::size_t start = 0; start < ref.size(); start += 3500) {
    core::DeviceIndex didx(dev, seed_len, step, 4000);
    core::build_partial_index(dev, ref, start,
                              std::min(ref.size(), start + 3500), 64, didx);
    for (std::uint32_t i = 0; i < didx.n_locs; ++i) {
      all_locs.push_back(didx.locs[i]);
    }
  }
  std::sort(all_locs.begin(), all_locs.end());
  const index::KmerIndex full(ref, 0, ref.size(), seed_len, step);
  std::vector<std::uint32_t> expect = full.locs();
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(all_locs, expect);
}

TEST(IndexKernels, IndexTimeGoesToLedger) {
  const auto ref = seq::GenomeModel{.length = 20000}.generate(13);
  simt::Device dev;
  core::DeviceIndex didx(dev, 8, 4, 6000);
  const double before = dev.ledger().total_seconds();
  core::build_partial_index(dev, ref, 0, ref.size(), 128, didx);
  EXPECT_GT(dev.ledger().total_seconds(), before);
  EXPECT_GT(dev.ledger().kernels_launched(), 0u);
}

TEST(IndexKernels, SeedLenSixteenExceedsDeviceMemory) {
  // 4^16 buckets * 4 bytes = 17 GB of ptrs: must trip the K20c capacity,
  // the restriction that motivates the lightweight-index design.
  simt::Device dev;
  EXPECT_THROW(core::DeviceIndex(dev, 16, 1, 1024), simt::DeviceOutOfMemory);
}

}  // namespace
}  // namespace gm
