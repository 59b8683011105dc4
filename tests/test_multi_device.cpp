// DevicePool tests: any device count must reproduce the exact
// single-device MEM set, with concurrent (max-over-devices) timing, and a
// persistent pool with row-index caches must answer like a transient one.
#include <gtest/gtest.h>

#include <memory>

#include "core/device_pool.h"
#include "core/finders.h"
#include "mem/naive.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"

namespace gm {
namespace {

using core::Config;
using core::DevicePool;
using core::Result;
using core::RunStats;

Config small_config() {
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;  // tiny tiles -> several rows to partition
  return cfg;
}

/// One run on a transient pool of `devices` cards.
struct PoolRun {
  std::vector<mem::Mem> mems;
  RunStats combined;
  std::vector<RunStats> per_device;
};

PoolRun run_pool(const Config& cfg, std::uint32_t devices,
                 const seq::Sequence& ref, const seq::Sequence& query) {
  PoolRun out;
  Result r = DevicePool(cfg, devices, ref).run(query, &out.per_device);
  out.mems = std::move(r.mems);
  out.combined = std::move(r.stats);
  return out;
}

class MultiDevice : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MultiDevice, MatchesNaiveAtAnyDeviceCount) {
  const std::uint32_t devices = GetParam();
  const auto base = seq::GenomeModel{.length = 3000}.generate(41);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  mut.indel_rate = 0.003;
  const auto query = mut.apply(base, 42);
  const auto truth = mem::find_mems_naive(base, query, 12);
  ASSERT_FALSE(truth.empty());

  const auto result = run_pool(small_config(), devices, base, query);
  EXPECT_EQ(result.mems, truth);
  EXPECT_EQ(result.per_device.size(), devices);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiDevice,
                         ::testing::Values(1u, 2u, 3u, 4u, 16u));

TEST(MultiDevice, CombinedTimeIsMaxNotSum) {
  const auto base = seq::GenomeModel{.length = 4000}.generate(43);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 44);

  const auto result = run_pool(small_config(), 3, base, query);
  double sum = 0.0, mx = 0.0;
  for (const auto& s : result.per_device) {
    sum += s.match_seconds;
    mx = std::max(mx, s.match_seconds);
  }
  EXPECT_GE(result.combined.match_seconds + 1e-12, mx);
  EXPECT_LT(result.combined.device_match_seconds(), sum + 1e-12);
}

TEST(MultiDevice, ScalingReducesModeledTime) {
  // With several rows of real work, 4 devices should beat 1 device on
  // modeled extraction time (not necessarily 4x: query scans repeat).
  const auto base = seq::GenomeModel{.length = 30000}.generate(45);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 46);
  Config cfg = small_config();
  cfg.min_length = 16;
  cfg.seed_len = 8;

  const auto one = run_pool(cfg, 1, base, query);
  const auto four = run_pool(cfg, 4, base, query);
  EXPECT_EQ(one.mems, four.mems);
  EXPECT_GT(one.combined.device_match_seconds(),
            four.combined.device_match_seconds());
}

TEST(MultiDevice, RowPartitionCoversEverything) {
  // Per-device tile_rows must sum to the total row count.
  const auto base = seq::GenomeModel{.length = 8000}.generate(47);
  const auto result = run_pool(small_config(), 5, base, base);
  std::uint32_t rows = 0;
  for (const auto& s : result.per_device) rows += s.tile_rows;
  EXPECT_EQ(rows, result.combined.tile_rows);
  EXPECT_EQ(result.mems, mem::find_mems_naive(base, base, 12));
}

TEST(MultiDevice, InvalidArguments) {
  const auto base = seq::GenomeModel{.length = 1000}.generate(48);
  EXPECT_THROW(DevicePool(small_config(), 0, base), std::invalid_argument);
  Config native = small_config();
  native.backend = core::Backend::kNative;
  EXPECT_THROW(DevicePool(native, 2, base), std::invalid_argument);
}

TEST(MultiDevice, EmptyInputs) {
  const auto result =
      run_pool(small_config(), 2, seq::Sequence(), seq::Sequence());
  EXPECT_TRUE(result.mems.empty());
}

TEST(MultiDevice, PersistentCachedPoolMatchesTransientAcrossRequests) {
  // The serve layer's shape: one pool kept across requests, a row-index
  // cache on every device. Each request must equal a fresh transient pool.
  const auto base = seq::GenomeModel{.length = 6000}.generate(49);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const Config cfg = small_config();
  DevicePool pool(cfg, 3, base);
  std::vector<std::unique_ptr<serve::DeviceRowIndexCache>> caches;
  for (std::uint32_t d = 0; d < pool.size(); ++d) {
    caches.push_back(
        std::make_unique<serve::DeviceRowIndexCache>(pool.device(d), cfg, 1));
    pool.attach(d, caches.back().get());
  }

  for (std::uint64_t request = 0; request < 2; ++request) {
    const auto query = mut.apply(base, 50 + request);
    const PoolRun transient = run_pool(cfg, 3, base, query);
    std::vector<RunStats> per_device;
    const Result warm = pool.run(query, &per_device);
    EXPECT_EQ(warm.mems, transient.mems) << "request " << request;
    EXPECT_EQ(warm.stats.tile_rows, transient.combined.tile_rows);
    EXPECT_EQ(warm.stats.tile_cols, transient.combined.tile_cols);
    EXPECT_EQ(warm.stats.inblock_mems, transient.combined.inblock_mems);
    EXPECT_EQ(warm.stats.intile_mems, transient.combined.intile_mems);
    EXPECT_EQ(warm.stats.outtile_pieces, transient.combined.outtile_pieces);
    EXPECT_EQ(per_device.size(), transient.per_device.size());
    // Only the second request finds every row resident.
    EXPECT_EQ(warm.stats.index_cache_hit, request == 1);
    EXPECT_FALSE(transient.combined.index_cache_hit);
  }
}

TEST(MultiDevice, GpumemFinderAdoptsPoolOrNativeIndex) {
  const auto base = seq::GenomeModel{.length = 3000}.generate(53);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 54);
  const auto truth = mem::find_mems_naive(base, query, 12);
  mem::FinderOptions opt;
  opt.min_length = 12;

  DevicePool pool(small_config(), 2, base);
  core::GpumemFinder simt(core::Backend::kSimt);
  simt.adopt_index(opt, pool);
  EXPECT_EQ(simt.find(query), truth);
  EXPECT_EQ(simt.find(query), truth);  // the pool persists across finds

  Config native_cfg = small_config();
  native_cfg.backend = core::Backend::kNative;
  core::GpumemFinder native(core::Backend::kNative);
  native.mutable_config() = native_cfg;
  native.adopt_index(base, opt,
                     core::Engine(native_cfg).build_native_index(base));
  EXPECT_EQ(native.find(query), truth);

  // An index for the other backend, or another L, is refused.
  EXPECT_THROW(native.adopt_index(opt, pool), std::invalid_argument);
  opt.min_length = 14;
  EXPECT_THROW(simt.adopt_index(opt, pool), std::invalid_argument);
}

}  // namespace
}  // namespace gm
