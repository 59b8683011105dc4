// The phase-form match kernel (production) against the coroutine-form
// reference: per block, bit-equal BlockResults (cycles, phases, work,
// per-term cycles), the same in-block and out-block lists in order, and the
// same overflow flags — over the fuzz sampler's geometries, wider blocks
// whose combines reach d > 4, and the perfbench geometry, with load
// balancing and the combine each on and off, and a round capacity small
// enough to force host-fallback rounds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/index_kernels.h"
#include "core/match_kernel.h"
#include "fuzz/fuzz.h"
#include "match_kernel_reference.h"
#include "seq/sequence.h"
#include "simt/device.h"
#include "util/rng.h"

namespace gm {
namespace {

struct Geometry {
  std::uint32_t tau = 2;
  std::uint32_t tile_blocks = 1;
  std::uint32_t seed_len = 4;
  std::uint32_t step = 4;  ///< Δs = w
  std::uint32_t min_len = 8;
};

struct Settings {
  bool load_balance = true;
  bool combine = true;
  std::uint32_t round_capacity = 16384;
};

/// Output buffers of one tile run of one kernel form.
struct Outputs {
  std::vector<mem::Mem> scratch, inblock, outblock;
  std::vector<std::uint32_t> in_count{0}, out_count{0};
  std::vector<std::uint8_t> overflow;

  Outputs(std::size_t scratch_len, std::size_t list_len,
          std::size_t overflow_len)
      : scratch(scratch_len),
        inblock(list_len),
        outblock(list_len),
        overflow(overflow_len, 0) {}

  core::MatchParams bind(core::MatchParams p) {
    p.scratch = scratch;
    p.inblock = inblock;
    p.inblock_count = in_count;
    p.outblock = outblock;
    p.outblock_count = out_count;
    p.overflow = overflow;
    return p;
  }
};

std::vector<mem::Mem> listed(const std::vector<mem::Mem>& list,
                             std::uint32_t count) {
  return {list.begin(),
          list.begin() + std::min<std::size_t>(count, list.size())};
}

/// Tallies across a test's tiles, so a test can check it reached what it
/// means to cover.
struct Coverage {
  std::uint64_t mems = 0;            ///< listed in-block + out-block triplets
  std::uint64_t overflow_rounds = 0; ///< rounds that fell back to the host
};

/// Runs every tile of (ref, query) block by block in both forms and expects
/// them to agree.
void expect_forms_agree(const std::string& ref_text,
                        const std::string& query_text, const Geometry& g,
                        const Settings& s, Coverage& cov) {
  const seq::Sequence ref = seq::Sequence::from_string_lenient(ref_text);
  const seq::Sequence query = seq::Sequence::from_string_lenient(query_text);
  simt::Device dev;
  const std::uint32_t w = g.step;
  const std::uint32_t block_width = g.tau * w;
  const std::uint32_t tile_len = g.tile_blocks * block_width;
  core::DeviceIndex index(dev, g.seed_len, w, tile_len / w + 2);
  const std::size_t list_len = 1 << 16;

  for (std::uint32_t r0 = 0; r0 < ref.size(); r0 += tile_len) {
    const std::uint32_t r1 = static_cast<std::uint32_t>(
        std::min<std::size_t>(ref.size(), std::size_t{r0} + tile_len));
    core::build_partial_index(dev, ref, r0, r1, g.tau, index);
    for (std::uint32_t c0 = 0; c0 < query.size(); c0 += tile_len) {
      const std::uint32_t c1 = static_cast<std::uint32_t>(
          std::min<std::size_t>(query.size(), std::size_t{c0} + tile_len));
      SCOPED_TRACE("tile r0=" + std::to_string(r0) +
                   " c0=" + std::to_string(c0));
      core::MatchParams p;
      p.ref = &ref;
      p.query = &query;
      p.ptrs = index.ptrs.span();
      p.locs = index.locs.span();
      p.tile = core::Rect{r0, r1, c0, c1};
      p.seed_len = g.seed_len;
      p.w = w;
      p.min_len = g.min_len;
      p.round_capacity = s.round_capacity;
      p.block_width = block_width;
      p.load_balance = s.load_balance;
      p.combine = s.combine;

      const std::size_t scratch_len =
          std::size_t{g.tile_blocks} * s.round_capacity;
      const std::size_t overflow_len = std::size_t{g.tile_blocks} * w;
      Outputs phase(scratch_len, list_len, overflow_len);
      Outputs coro(scratch_len, list_len, overflow_len);
      const core::MatchParams pp = phase.bind(p);
      const core::MatchParams pc = coro.bind(p);
      for (std::uint32_t b = 0; b < g.tile_blocks; ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        const simt::BlockResult got =
            core::run_match_block(dev.spec(), b, g.tau, pp);
        const simt::BlockResult want = core::run_match_block_reference(
            dev.spec(), b, g.tile_blocks, g.tau, pc);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.phases, want.phases);
        EXPECT_EQ(got.work.alu, want.work.alu);
        EXPECT_EQ(got.work.global_bytes, want.work.global_bytes);
        EXPECT_EQ(got.work.txns, want.work.txns);
        EXPECT_EQ(got.work.shared_ops, want.work.shared_ops);
        EXPECT_EQ(got.work.atomics, want.work.atomics);
        EXPECT_EQ(got.cycle_terms.compute, want.cycle_terms.compute);
        EXPECT_EQ(got.cycle_terms.shared, want.cycle_terms.shared);
        EXPECT_EQ(got.cycle_terms.latency, want.cycle_terms.latency);
        EXPECT_EQ(got.cycle_terms.atomics, want.cycle_terms.atomics);
        EXPECT_EQ(got.cycle_terms.barrier, want.cycle_terms.barrier);
        // Blocks run one after another, so equal lists after every block
        // mean equal per-block lists in the same order.
        ASSERT_EQ(phase.in_count[0], coro.in_count[0]);
        ASSERT_EQ(phase.out_count[0], coro.out_count[0]);
        EXPECT_EQ(listed(phase.inblock, phase.in_count[0]),
                  listed(coro.inblock, coro.in_count[0]));
        EXPECT_EQ(listed(phase.outblock, phase.out_count[0]),
                  listed(coro.outblock, coro.out_count[0]));
      }
      EXPECT_EQ(phase.overflow, coro.overflow);
      cov.mems += phase.in_count[0] + phase.out_count[0];
      for (std::uint8_t f : phase.overflow) cov.overflow_rounds += f;
    }
  }
}

const Settings kAllSettings[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

std::string random_dna(util::Xoshiro256& rng, std::size_t n) {
  static constexpr char kBases[] = "ACGT";
  std::string s(n, 'A');
  for (char& c : s) c = kBases[rng.bounded(4)];
  return s;
}

/// `src` with about one substitution per `every` bases: long co-diagonal
/// runs, so seed hits chain and the combine merges them.
std::string diverged(util::Xoshiro256& rng, std::string src,
                     std::uint64_t every) {
  static constexpr char kBases[] = "ACGT";
  for (char& c : src) {
    if (rng.bounded(every) == 0) c = kBases[rng.bounded(4)];
  }
  return src;
}

Geometry sampler_geometry(const fuzz::FuzzCase& c) {
  Geometry g;
  g.tau = c.threads;
  g.tile_blocks = c.tile_blocks;
  g.seed_len = c.seed_len;
  g.min_len = c.min_len;
  g.step = c.step == 0 ? c.min_len - c.seed_len + 1 : c.step;
  return g;
}

TEST(MatchPhaseForm, AgreesWithCoroutineOnSamplerGeometries) {
  util::Xoshiro256 rng(21);
  Coverage cov;
  bool seen_tau[9] = {};
  for (int i = 0; i < 40; ++i) {
    const fuzz::FuzzCase c = fuzz::sample_case(rng);
    const Geometry g = sampler_geometry(c);
    seen_tau[g.tau] = true;
    for (const Settings& s : kAllSettings) {
      SCOPED_TRACE("case " + std::to_string(i) + " lb=" +
                   std::to_string(s.load_balance) +
                   " combine=" + std::to_string(s.combine));
      expect_forms_agree(c.ref, c.query, g, s, cov);
    }
  }
  EXPECT_TRUE(seen_tau[2] && seen_tau[4] && seen_tau[8]);
  EXPECT_GT(cov.mems, 0u);
}

TEST(MatchPhaseForm, AgreesWithCoroutineOnHostFallbackRounds) {
  util::Xoshiro256 rng(7);
  Coverage cov;
  for (int i = 0; i < 12; ++i) {
    const fuzz::FuzzCase c = fuzz::sample_case(rng);
    for (const Settings& base : kAllSettings) {
      Settings s = base;
      s.round_capacity = 3;
      expect_forms_agree(c.ref, c.query, sampler_geometry(c), s, cov);
    }
  }
  EXPECT_GT(cov.overflow_rounds, 0u);
}

TEST(MatchPhaseForm, AgreesWithCoroutineOnWideBlocks) {
  util::Xoshiro256 rng(3);
  for (const std::uint32_t tau : {16u, 64u, 256u}) {
    SCOPED_TRACE("tau " + std::to_string(tau));
    Geometry g;
    g.tau = tau;
    g.tile_blocks = 2;
    g.seed_len = 5;
    g.min_len = 12;
    g.step = 6;
    const std::size_t tile_len = std::size_t{g.tile_blocks} * tau * g.step;
    const std::string ref = random_dna(rng, tile_len + tile_len / 3);
    const std::string query = diverged(rng, ref, 40);
    Coverage cov;
    for (Settings s : kAllSettings) {
      expect_forms_agree(ref, query, g, s, cov);
      s.round_capacity = 1;  // any round with two hits falls back
      expect_forms_agree(ref, query, g, s, cov);
    }
    EXPECT_GT(cov.mems, 0u);
    EXPECT_GT(cov.overflow_rounds, 0u);
  }
}

TEST(MatchPhaseForm, AgreesWithCoroutineOnPerfbenchGeometry) {
  // τ 256, 8 tile blocks, ℓs 8 at L = 30 (Δs = 23), as perfbench runs SIMT.
  util::Xoshiro256 rng(5);
  Geometry g;
  g.tau = 256;
  g.tile_blocks = 8;
  g.seed_len = 8;
  g.min_len = 30;
  g.step = 23;
  const std::size_t tile_len = std::size_t{g.tile_blocks} * g.tau * g.step;
  const std::string ref = random_dna(rng, tile_len);
  const std::string query = diverged(rng, ref, 60);
  Coverage cov;
  for (const Settings& s : kAllSettings) {
    expect_forms_agree(ref, query, g, s, cov);
  }
  EXPECT_GT(cov.mems, 0u);
}

}  // namespace
}  // namespace gm
