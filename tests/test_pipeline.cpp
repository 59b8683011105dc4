// End-to-end GPUMEM pipeline tests: both backends must reproduce the naive
// MEM set across parameter sweeps, including degenerate tilings that force
// every stitch path (out-block, out-tile, cross-row chains).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/finders.h"
#include "core/pipeline.h"
#include "mem/naive.h"
#include "obs/registry.h"
#include "seq/synthetic.h"
#include "store/loaded_index.h"
#include "util/rng.h"

namespace gm {
namespace {

using core::Backend;
using core::Config;
using core::Engine;

struct PipelineCase {
  std::uint32_t min_len;
  std::uint32_t seed_len;
  std::uint32_t threads;
  std::uint32_t tile_blocks;
  double divergence;
  std::size_t ref_len;
  std::size_t query_len;
  std::uint64_t seed;
  bool load_balance = true;
  bool combine = true;
};

std::ostream& operator<<(std::ostream& os, const PipelineCase& c) {
  return os << "L=" << c.min_len << " ls=" << c.seed_len << " tau=" << c.threads
            << " nblock=" << c.tile_blocks << " div=" << c.divergence
            << " ref=" << c.ref_len << " query=" << c.query_len
            << " seed=" << c.seed << " lb=" << c.load_balance
            << " combine=" << c.combine;
}

void build_pair(const PipelineCase& c, seq::Sequence& ref,
                seq::Sequence& query) {
  const seq::Sequence base =
      seq::GenomeModel{.length = c.ref_len}.generate(c.seed);
  ref = base;
  seq::MutationModel mut;
  mut.snp_rate = c.divergence;
  mut.indel_rate = c.divergence / 5;
  mut.inversions = 1;
  mut.translocations = 1;
  mut.duplications = 1;
  mut.segment_mean = c.ref_len / 8;
  mut.target_length = c.query_len;
  query = mut.apply(base, c.seed + 2);
}

Config make_config(const PipelineCase& c, Backend backend) {
  Config cfg;
  cfg.min_length = c.min_len;
  cfg.seed_len = c.seed_len;
  cfg.threads = c.threads;
  cfg.tile_blocks = c.tile_blocks;
  cfg.load_balance = c.load_balance;
  cfg.combine = c.combine;
  cfg.backend = backend;
  return cfg;
}

class PipelineEquivalence : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineEquivalence, SimtMatchesNaive) {
  const PipelineCase& c = GetParam();
  seq::Sequence ref, query;
  build_pair(c, ref, query);
  const auto truth = mem::find_mems_naive(ref, query, c.min_len);
  const Engine engine(make_config(c, Backend::kSimt));
  const core::Result result = engine.run(ref, query);
  EXPECT_EQ(result.mems, truth);
  EXPECT_EQ(result.stats.mem_count, truth.size());
  EXPECT_GT(result.stats.index_seconds, 0.0);
  EXPECT_GT(result.stats.match_seconds, 0.0);
}

TEST_P(PipelineEquivalence, NativeMatchesNaive) {
  const PipelineCase& c = GetParam();
  seq::Sequence ref, query;
  build_pair(c, ref, query);
  const auto truth = mem::find_mems_naive(ref, query, c.min_len);
  const Engine engine(make_config(c, Backend::kNative));
  const core::Result result = engine.run(ref, query);
  EXPECT_EQ(result.mems, truth);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineEquivalence,
    ::testing::Values(
        // Single-tile everything: the simplest path.
        PipelineCase{12, 6, 16, 4, 0.03, 2000, 2000, 1},
        // Tiny tiles: tile_len = 4 * 16 * (12-6+1) = 448 -> many tiles,
        // forcing out-block and out-tile stitching on 3k sequences.
        PipelineCase{12, 6, 16, 2, 0.02, 3000, 2500, 2},
        // Degenerate: tile smaller than many MEMs (identical sequences have
        // a MEM spanning everything; crosses many tiles and rows).
        PipelineCase{16, 8, 8, 2, 0.0, 2500, 2500, 3},
        // seed_len == min_length: step = 1 (full index).
        PipelineCase{8, 8, 16, 2, 0.05, 1200, 1200, 4},
        // Larger L, bigger step.
        PipelineCase{30, 10, 16, 2, 0.01, 4000, 3000, 5},
        // High divergence: sparse output.
        PipelineCase{10, 5, 32, 2, 0.15, 1500, 1500, 6},
        // Load balancing off (paper Fig. 7 baseline) must not change output.
        PipelineCase{12, 6, 16, 2, 0.02, 2000, 2000, 7, false, true},
        // Combine off (ablation): duplicates must be cleaned up downstream.
        PipelineCase{12, 6, 16, 2, 0.02, 2000, 2000, 8, true, false},
        // Both off.
        PipelineCase{12, 6, 16, 2, 0.02, 2000, 2000, 9, false, false},
        // tau = 2: minimum block size, k = 1 combine schedule.
        PipelineCase{10, 5, 2, 2, 0.03, 800, 800, 10},
        // Repetitive genome (tandem-heavy) with small round capacity comes
        // in RoundOverflowFallback below; here the default capacity.
        PipelineCase{14, 7, 16, 2, 0.02, 2600, 2400, 11}));

TEST(Pipeline, EmptyAndDegenerateInputs) {
  Config cfg;
  cfg.min_length = 10;
  cfg.seed_len = 5;
  const Engine engine(cfg);
  const seq::Sequence empty;
  const seq::Sequence tiny = seq::Sequence::from_string("ACG");
  EXPECT_TRUE(engine.run(empty, empty).mems.empty());
  EXPECT_TRUE(engine.run(tiny, empty).mems.empty());
  EXPECT_TRUE(engine.run(empty, tiny).mems.empty());
  EXPECT_TRUE(engine.run(tiny, tiny).mems.empty());  // shorter than L
}

TEST(Pipeline, QueryEqualsReference) {
  const auto base = seq::GenomeModel{.length = 3000}.generate(21);
  Config cfg;
  cfg.min_length = 20;
  cfg.seed_len = 8;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const Engine engine(cfg);
  const auto result = engine.run(base, base);
  const auto truth = mem::find_mems_naive(base, base, 20);
  EXPECT_EQ(result.mems, truth);
  // The identity MEM must be present.
  bool has_identity = false;
  for (const auto& m : result.mems) {
    has_identity |= m.r == 0 && m.q == 0 && m.len == base.size();
  }
  EXPECT_TRUE(has_identity);
}

TEST(Pipeline, RoundOverflowFallback) {
  // A tandem-repeat query region makes single seeds occur hundreds of
  // times; with a tiny round capacity the kernel must flag the round and
  // the host fallback must keep the output exact.
  std::string r_str, q_str;
  for (int i = 0; i < 300; ++i) r_str += "ACGGT";
  for (int i = 0; i < 100; ++i) q_str += "ACGGT";
  const auto R = seq::Sequence::from_string(r_str);
  const auto Q = seq::Sequence::from_string(q_str);
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  cfg.round_capacity = 64;  // far below the repeat load
  const Engine engine(cfg);
  const auto result = engine.run(R, Q);
  EXPECT_GT(result.stats.overflow_rounds, 0u);
  EXPECT_EQ(result.mems, mem::find_mems_naive(R, Q, 12));
}

TEST(Pipeline, OutputBufferRetryKeepsResultsExact) {
  const auto base = seq::GenomeModel{.length = 3000}.generate(22);
  Config cfg;
  cfg.min_length = 10;
  cfg.seed_len = 5;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  cfg.output_capacity = 8;  // absurdly small: forces doubling retries
  const Engine engine(cfg);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 5);
  EXPECT_EQ(engine.run(base, query).mems,
            mem::find_mems_naive(base, query, 10));
}

TEST(Pipeline, SmallTileBuffersFitTheTile) {
  // 192 bp tiles emit at most a few thousand triplets; sizing their lists
  // and scratch at the default capacities would cost more device (and host)
  // memory than one full-capacity output list.
  const auto base = seq::GenomeModel{.length = 3000}.generate(23);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 6);
  Config cfg;
  cfg.min_length = 10;
  cfg.seed_len = 5;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const auto result = Engine(cfg).run(base, query);
  EXPECT_EQ(result.mems, mem::find_mems_naive(base, query, 10));
  EXPECT_LT(result.stats.device_peak_bytes,
            std::size_t{cfg.output_capacity} * sizeof(mem::Mem));
}

TEST(Pipeline, KernelBreakdownCoversModeledTime) {
  const auto base = seq::GenomeModel{.length = 3000}.generate(31);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 9);
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const auto result = Engine(cfg).run(base, query);
  ASSERT_FALSE(result.stats.kernel_breakdown.empty());
  std::vector<std::string> labels;
  double total = 0.0;
  std::uint64_t launches = 0;
  for (const auto& ks : result.stats.kernel_breakdown) {
    labels.push_back(ks.label);
    total += ks.seconds;
    launches += ks.launches;
    EXPECT_GE(ks.seconds, 0.0);
    EXPECT_GT(ks.launches, 0u) << ks.label;
  }
  // Every pipeline stage shows up.
  for (const char* expect : {"match", "index/count", "index/fill",
                             "index/sort", "scan/chunk-sums", "scan/apply"}) {
    EXPECT_NE(std::find(labels.begin(), labels.end(), expect), labels.end())
        << expect;
  }
  // Breakdown is a decomposition of (most of) the modeled kernel time, and
  // every labelled launch is part of the run's launch total.
  EXPECT_LE(total, result.stats.index_seconds + result.stats.match_seconds + 1e-9);
  EXPECT_LE(launches, result.stats.kernels_launched);
  // Sorted descending.
  for (std::size_t i = 1; i < result.stats.kernel_breakdown.size(); ++i) {
    EXPECT_GE(result.stats.kernel_breakdown[i - 1].seconds,
              result.stats.kernel_breakdown[i].seconds);
  }
}

TEST(Pipeline, TracedStageSpansDecomposeRunStats) {
  // With observability on, the "stage" spans (per-row index builds, per-tile
  // matches, the host merge) must decompose index_seconds + match_seconds:
  // the trace is the same accounting, just structured.
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);

  const auto base = seq::GenomeModel{.length = 4000}.generate(41);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 13);
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const auto result = Engine(cfg).run(base, query);

  double stage_seconds = 0.0;
  std::uint64_t index_spans = 0, match_spans = 0, stitch_spans = 0;
  std::uint64_t kernel_spans = 0;
  for (const obs::SpanEvent& ev : reg.trace().events()) {
    if (ev.category == "stage") {
      stage_seconds += ev.duration_us * 1e-6;
      index_spans += ev.name == "index/build-row";
      match_spans += ev.name == "match/tile";
      stitch_spans += ev.name == "stitch/host-merge";
    }
    kernel_spans += ev.category == "kernel";
  }
  EXPECT_EQ(index_spans, result.stats.tile_rows);
  EXPECT_EQ(match_spans,
            std::uint64_t{result.stats.tile_rows} * result.stats.tile_cols);
  EXPECT_EQ(stitch_spans, 1u);
  EXPECT_EQ(kernel_spans, result.stats.kernels_launched);
  const double run_seconds =
      result.stats.index_seconds + result.stats.match_seconds;
  EXPECT_NEAR(stage_seconds, run_seconds, 1e-9 + run_seconds * 1e-6);

  // Metrics mirror every RunStats field of the same run.
  obs::Metrics& m = reg.metrics();
  EXPECT_DOUBLE_EQ(m.gauge("run.index_seconds").value(),
                   result.stats.index_seconds);
  EXPECT_DOUBLE_EQ(m.gauge("run.match_seconds").value(),
                   result.stats.match_seconds);
  EXPECT_DOUBLE_EQ(m.gauge("run.host_stitch_seconds").value(),
                   result.stats.host_stitch_seconds);
  EXPECT_DOUBLE_EQ(m.gauge("run.wall_seconds").value(),
                   result.stats.wall_seconds);
  EXPECT_DOUBLE_EQ(m.gauge("run.mem_count").value(),
                   static_cast<double>(result.stats.mem_count));
  EXPECT_DOUBLE_EQ(m.gauge("run.kernels_launched").value(),
                   static_cast<double>(result.stats.kernels_launched));
  for (const auto& ks : result.stats.kernel_breakdown) {
    EXPECT_DOUBLE_EQ(m.gauge("kernel." + ks.label + ".seconds").value(),
                     ks.seconds);
    EXPECT_DOUBLE_EQ(m.gauge("kernel." + ks.label + ".launches").value(),
                     static_cast<double>(ks.launches));
  }

  reg.set_enabled(false);
  reg.reset();
}

TEST(Pipeline, StatsAreCoherent) {
  const auto base = seq::GenomeModel{.length = 4000}.generate(23);
  seq::MutationModel mut;
  mut.snp_rate = 0.01;
  const auto query = mut.apply(base, 6);
  Config cfg;
  cfg.min_length = 16;
  cfg.seed_len = 8;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const Engine engine(cfg);
  const auto result = engine.run(base, query);
  EXPECT_GE(result.stats.tile_rows, 1u);
  EXPECT_GE(result.stats.tile_cols, 1u);
  EXPECT_GT(result.stats.kernels_launched, 0u);
  EXPECT_GT(result.stats.device_peak_bytes, 0u);
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  // Reported MEM counters cover at least the final set (duplicates across
  // stages are possible, fewer is not).
  EXPECT_GE(result.stats.inblock_mems + result.stats.intile_mems +
                result.stats.outtile_pieces,
            result.stats.mem_count);
}

TEST(Pipeline, LoadBalanceDoesNotChangeModeledResultButChangesTime) {
  // Skewed seed distribution: modeled time with balancing must beat the
  // unbalanced run (Fig. 7's effect), with identical output.
  std::string r_str;
  for (int i = 0; i < 500; ++i) r_str += "ACGGTTCA";  // repeat-heavy
  const auto base = seq::Sequence::from_string(r_str);
  seq::MutationModel mut;
  mut.snp_rate = 0.03;
  const auto query = mut.apply(base, 7);

  Config cfg;
  cfg.min_length = 16;
  cfg.seed_len = 8;
  cfg.threads = 64;
  cfg.tile_blocks = 2;

  cfg.load_balance = true;
  const auto with_lb = Engine(cfg).run(base, query);
  cfg.load_balance = false;
  const auto without_lb = Engine(cfg).run(base, query);

  EXPECT_EQ(with_lb.mems, without_lb.mems);
  EXPECT_LT(with_lb.stats.match_seconds, without_lb.stats.match_seconds);
}

TEST(GpumemFinder, AdapterReportsStats) {
  const auto base = seq::GenomeModel{.length = 2000}.generate(25);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 8);

  core::GpumemFinder finder(Backend::kSimt);
  finder.mutable_config().seed_len = 6;
  finder.mutable_config().threads = 16;
  finder.mutable_config().tile_blocks = 2;
  mem::FinderOptions opt;
  opt.min_length = 12;
  finder.build_index(base, opt);
  const auto mems = finder.find(query);
  EXPECT_EQ(mems, mem::find_mems_naive(base, query, 12));
  EXPECT_GT(finder.last_stats().index_seconds, 0.0);
  EXPECT_EQ(finder.last_stats().mem_count, mems.size());
  EXPECT_EQ(finder.name(), "gpumem");
  EXPECT_EQ(core::GpumemFinder(Backend::kNative).name(), "gpumem-native");
}

TEST(NativeIndexReuse, PrebuiltMatchesAdhoc) {
  const auto base = seq::GenomeModel{.length = 6000}.generate(51);
  Config cfg;
  cfg.min_length = 14;
  cfg.seed_len = 7;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  cfg.backend = Backend::kNative;
  const Engine engine(cfg);
  const auto prebuilt = engine.build_native_index(base);
  EXPECT_EQ(prebuilt.rows.size(),
            (base.size() + engine.config().validated().tile_len - 1) /
                engine.config().validated().tile_len);

  seq::MutationModel mut;
  mut.snp_rate = 0.03;
  for (int q = 0; q < 3; ++q) {
    const auto query = mut.apply(base, 60 + q);
    const auto adhoc = engine.run(base, query);
    const auto reused = engine.run_native_prebuilt(base, query, prebuilt);
    EXPECT_EQ(adhoc.mems, reused.mems) << q;
    EXPECT_EQ(reused.stats.index_seconds, 0.0);
  }
}

TEST(NativeIndexReuse, FinderReusesAcrossQueries) {
  const auto base = seq::GenomeModel{.length = 5000}.generate(52);
  core::GpumemFinder finder(Backend::kNative);
  finder.mutable_config().seed_len = 6;
  finder.mutable_config().tile_blocks = 2;
  finder.mutable_config().threads = 16;
  mem::FinderOptions opt;
  opt.min_length = 12;
  finder.build_index(base, opt);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  for (int q = 0; q < 3; ++q) {
    const auto query = mut.apply(base, 70 + q);
    EXPECT_EQ(finder.find(query), mem::find_mems_naive(base, query, 12)) << q;
    EXPECT_GT(finder.last_stats().index_seconds, 0.0);  // the one-time build
  }
}

TEST(GpumemFinder, FindBeforeBuildThrows) {
  core::GpumemFinder finder;
  EXPECT_THROW(finder.find(seq::Sequence::from_string("ACGT")),
               std::logic_error);
}

TEST(FastIndex, CopmemRouteMatchesTiledPipeline) {
  // The copMEM fast-index route (store::open_host_finder) must return the
  // exact MEM set of the tiled SIMT pipeline, at the build L and above it.
  const auto base = seq::GenomeModel{.length = 6000}.generate(53);
  Config cfg;
  cfg.min_length = 14;
  cfg.seed_len = 7;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const Engine engine(cfg);
  mem::FinderOptions opt;
  opt.min_length = cfg.min_length;
  const auto fast = store::open_host_finder("copmem", base, opt, cfg.seed_len);
  EXPECT_EQ(fast->name(), "copmem");
  seq::MutationModel mut;
  mut.snp_rate = 0.03;
  for (int q = 0; q < 3; ++q) {
    const auto query = mut.apply(base, 80 + q);
    auto tiled = engine.run(base, query).mems;
    EXPECT_EQ(fast->find(query), tiled) << q;
    std::erase_if(tiled, [](const mem::Mem& m) { return m.len < 20; });
    EXPECT_EQ(fast->find_at(query, 20), tiled) << q;
  }
  EXPECT_THROW(store::open_host_finder("naive", base, opt, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace gm
