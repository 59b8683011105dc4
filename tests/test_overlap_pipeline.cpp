// Worker-stream tests for the one SIMT tile loop: at W > 1 worker streams
// it must produce the exact W = 1 (serial) MEM set under every stream
// count, scheduler interleaving (50 shuffle seeds), and front-end (plain
// run, cached/serve path, multi-device), while only modeled makespan —
// never results — changes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/device_pool.h"
#include "core/pipeline.h"
#include "mem/naive.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"
#include "serve/service.h"

namespace gm {
namespace {

using core::Config;
using core::Engine;
using core::Result;

/// Small geometry with several tile rows and columns so every overlap edge
/// (double-buffer reuse, cross-stream column fan-out, row stitch) is live.
Config small_config() {
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;  // tile_len = 224: ~2.4k bases make a 11x9 tile grid
  return cfg;
}

void build_pair(std::size_t ref_len, std::size_t query_len, std::uint64_t seed,
                seq::Sequence& ref, seq::Sequence& query) {
  ref = seq::GenomeModel{.length = ref_len}.generate(seed);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  mut.indel_rate = 0.004;
  mut.target_length = query_len;
  query = mut.apply(ref, seed + 1);
}

TEST(OverlapPipeline, MatchesSerialAndNaiveAcrossStreamCounts) {
  seq::Sequence ref, query;
  build_pair(2400, 2000, 11, ref, query);
  const auto truth = mem::find_mems_naive(ref, query, 12);
  ASSERT_FALSE(truth.empty());

  Config cfg = small_config();
  const Result serial = Engine(cfg).run(ref, query);
  EXPECT_EQ(serial.mems, truth);

  for (std::uint32_t streams : {1u, 2u, 3u, 5u}) {
    cfg.overlap_streams = streams;
    const Result over = Engine(cfg).run(ref, query);
    EXPECT_EQ(over.mems, truth) << "streams=" << streams;
    EXPECT_EQ(over.stats.mem_count, serial.stats.mem_count);
    EXPECT_EQ(over.stats.tile_rows, serial.stats.tile_rows);
    EXPECT_EQ(over.stats.tile_cols, serial.stats.tile_cols);
    EXPECT_EQ(over.stats.inblock_mems, serial.stats.inblock_mems);
    EXPECT_EQ(over.stats.intile_mems, serial.stats.intile_mems);
    EXPECT_EQ(over.stats.outtile_pieces, serial.stats.outtile_pieces);
    EXPECT_EQ(over.stats.overflow_rounds, serial.stats.overflow_rounds);
  }
}

TEST(OverlapPipeline, DeterministicAcross50ShuffleSeeds) {
  // The satellite rig: 50 scheduler interleavings (seeded drain-order
  // shuffle) must all reproduce the serial MEM set and identical RunStats
  // invariants — results may not depend on stream scheduling, ever.
  seq::Sequence ref, query;
  build_pair(2200, 1800, 23, ref, query);

  Config cfg = small_config();
  const Result serial = Engine(cfg).run(ref, query);
  ASSERT_FALSE(serial.mems.empty());

  cfg.overlap_streams = 3;
  Result first;  // seed 1's run, the cross-seed stats reference
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    cfg.overlap_shuffle_seed = seed;
    Result r = Engine(cfg).run(ref, query);
    ASSERT_EQ(r.mems, serial.mems) << "shuffle seed " << seed;
    ASSERT_EQ(r.stats.mem_count, serial.stats.mem_count) << "seed " << seed;
    ASSERT_EQ(r.stats.inblock_mems, serial.stats.inblock_mems)
        << "seed " << seed;
    ASSERT_EQ(r.stats.intile_mems, serial.stats.intile_mems)
        << "seed " << seed;
    ASSERT_EQ(r.stats.outtile_pieces, serial.stats.outtile_pieces)
        << "seed " << seed;
    ASSERT_EQ(r.stats.overflow_rounds, serial.stats.overflow_rounds)
        << "seed " << seed;
    ASSERT_EQ(r.stats.tile_rows, serial.stats.tile_rows) << "seed " << seed;
    ASSERT_EQ(r.stats.tile_cols, serial.stats.tile_cols) << "seed " << seed;
    if (seed == 1) {
      first = std::move(r);
      continue;
    }
    // Across shuffle seeds the *entire* modeled execution is identical —
    // same charges, same launches; only placement may move. The seconds
    // sums accumulate through the shared ledger in drain order, so they
    // agree only up to floating-point association (a few ulps).
    ASSERT_EQ(r.stats.kernels_launched, first.stats.kernels_launched)
        << "seed " << seed;
    ASSERT_NEAR(r.stats.index_seconds, first.stats.index_seconds,
                1e-9 * first.stats.index_seconds)
        << "seed " << seed;
    ASSERT_NEAR(r.stats.device_match_seconds(),
                first.stats.device_match_seconds(),
                1e-9 * first.stats.device_match_seconds())
        << "seed " << seed;
  }
}

TEST(OverlapPipeline, MakespanImprovesOnSerialAndStatsStayComparable) {
  seq::Sequence ref, query;
  build_pair(4000, 3600, 31, ref, query);

  Config cfg = small_config();
  const Result serial = Engine(cfg).run(ref, query);
  cfg.overlap_streams = 2;
  const Result over = Engine(cfg).run(ref, query);

  EXPECT_EQ(over.mems, serial.mems);
  // Serial makespan is the full ledger delta; overlap can only shrink it.
  EXPECT_GT(serial.stats.modeled_makespan_seconds, 0.0);
  EXPECT_GT(over.stats.modeled_makespan_seconds, 0.0);
  EXPECT_LT(over.stats.modeled_makespan_seconds,
            serial.stats.modeled_makespan_seconds);
  // The serial-style sums remain comparable across paths (per-stream
  // capacity adaptation allows only marginal drift).
  EXPECT_NEAR(over.stats.index_seconds, serial.stats.index_seconds,
              0.05 * serial.stats.index_seconds + 1e-12);
  EXPECT_NEAR(over.stats.device_match_seconds(),
              serial.stats.device_match_seconds(),
              0.05 * serial.stats.device_match_seconds() + 1e-12);
}

TEST(OverlapPipeline, SingleTileInputStillCorrect) {
  // Degenerate case: everything fits one tile — no cross-row edges, one
  // worker gets all the work, the others only wait on the upload event.
  seq::Sequence ref, query;
  build_pair(150, 120, 37, ref, query);

  Config cfg = small_config();
  const Result serial = Engine(cfg).run(ref, query);
  cfg.overlap_streams = 4;
  const Result over = Engine(cfg).run(ref, query);
  EXPECT_EQ(over.mems, serial.mems);
  EXPECT_EQ(over.stats.tile_rows, 1u);
  EXPECT_EQ(over.stats.tile_cols, 1u);
}

TEST(OverlapPipeline, OneStreamHoldsOneRowIndexSlot) {
  // A second index slot only pays when another worker stream can match
  // row k while row k+1 builds; at W = 1 it would be dead device memory.
  seq::Sequence ref, query;
  build_pair(2400, 2000, 43, ref, query);

  Config cfg = small_config();
  const Result one = Engine(cfg).run(ref, query);
  ASSERT_GT(one.stats.tile_rows, 1u);
  cfg.overlap_streams = 2;
  const Result two = Engine(cfg).run(ref, query);
  EXPECT_EQ(two.mems, one.mems);
  EXPECT_LT(one.stats.device_peak_bytes, two.stats.device_peak_bytes);
}

TEST(OverlapPipeline, CachedRowIndexSourceMatchesAndHits) {
  seq::Sequence ref, query;
  build_pair(2400, 2000, 41, ref, query);

  Config cfg = small_config();
  const Result serial = Engine(cfg).run(ref, query);

  cfg.overlap_streams = 2;
  core::DevicePool over(cfg, 1, ref);
  serve::DeviceRowIndexCache cache(over.device(0), cfg, /*ref_id=*/1);
  over.attach(0, &cache);
  const Result cold = over.run(query);
  EXPECT_EQ(cold.mems, serial.mems);
  EXPECT_FALSE(cold.stats.index_cache_hit);

  const Result warm = over.run(query);
  EXPECT_EQ(warm.mems, serial.mems);
  EXPECT_TRUE(warm.stats.index_cache_hit);
  EXPECT_LT(warm.stats.index_seconds, cold.stats.index_seconds + 1e-12);
}

TEST(OverlapPipeline, MultiDeviceAdoptsOverlap) {
  seq::Sequence ref, query;
  build_pair(3000, 2500, 47, ref, query);

  Config cfg = small_config();
  const Result serial = core::DevicePool(cfg, 2, ref).run(query);
  cfg.overlap_streams = 2;
  std::vector<core::RunStats> per_device;
  const Result over = core::DevicePool(cfg, 2, ref).run(query, &per_device);

  EXPECT_EQ(over.mems, serial.mems);
  EXPECT_GT(over.stats.modeled_makespan_seconds, 0.0);
  // Combined makespan is the slowest device, not the sum.
  double mx = 0.0;
  for (const auto& s : per_device) {
    mx = std::max(mx, s.modeled_makespan_seconds);
  }
  EXPECT_DOUBLE_EQ(over.stats.modeled_makespan_seconds, mx);
}

TEST(OverlapPipeline, ServeAdoptsOverlap) {
  seq::Sequence ref, query;
  build_pair(2400, 1500, 53, ref, query);

  Config engine_cfg = small_config();
  const Result serial = Engine(engine_cfg).run(ref, query);

  serve::ServiceConfig cfg;
  cfg.engine = engine_cfg;
  cfg.engine.overlap_streams = 2;
  serve::MemService svc(cfg, ref);
  auto fut = svc.submit({.id = "q1", .query = query});
  const serve::QueryResult res = fut.get();
  ASSERT_EQ(res.status, serve::QueryStatus::kOk);
  EXPECT_EQ(res.mems, serial.mems);
  EXPECT_GT(res.stats.modeled_makespan_seconds, 0.0);
}

TEST(OverlapPipeline, SpansLandOnPerStreamTracks) {
  // Satellite: concurrent phases get distinct trace lanes. The overlapped
  // run must emit modeled spans on track >= 1 (per-stream lanes), and the
  // exporter must name those lanes.
  class Guard {
   public:
    Guard() {
      obs::Registry::global().reset();
      obs::Registry::global().set_enabled(true);
    }
    ~Guard() {
      obs::Registry::global().set_enabled(false);
      obs::Registry::global().reset();
    }
  } guard;

  seq::Sequence ref, query;
  build_pair(1500, 1200, 59, ref, query);
  Config cfg = small_config();
  cfg.overlap_streams = 2;
  (void)Engine(cfg).run(ref, query);

  const auto evs = obs::Registry::global().trace().events();
  bool saw_stream_track = false;
  bool saw_serial_track = false;
  for (const auto& ev : evs) {
    if (ev.track >= 1) saw_stream_track = true;
    if (ev.track == 0) saw_serial_track = true;
  }
  EXPECT_TRUE(saw_stream_track);  // kernels/stages retimed onto stream lanes
  EXPECT_TRUE(saw_serial_track);  // host-merge stitch span stays serial

  std::ostringstream os;
  obs::Registry::global().trace().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"stream 1\""), std::string::npos);
  EXPECT_NE(json.find("\"stream 2\""), std::string::npos);
}

}  // namespace
}  // namespace gm
