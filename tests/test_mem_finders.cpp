// Cross-validation: every MEM finder must produce the identical MEM set.
// The naive diagonal scanner is the ground truth; it is itself validated on
// hand-constructed cases first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <numeric>
#include <string>
#include <thread>

#include "core/finders.h"
#include "mem/common.h"
#include "mem/copmem.h"
#include "mem/essamem.h"
#include "mem/mummer.h"
#include "mem/naive.h"
#include "mem/registry.h"
#include "mem/sharded_find.h"
#include "mem/slamem.h"
#include "mem/sparsemem.h"
#include "mem/validate.h"
#include "obs/registry.h"
#include "seq/synthetic.h"
#include "util/rng.h"

namespace gm {
namespace {

using mem::Mem;

seq::Sequence random_seq(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.bounded(4));
  return seq::Sequence::from_codes(codes);
}

TEST(Naive, HandConstructedCases) {
  const auto R = seq::Sequence::from_string("AAAACGTAAAA");
  const auto Q = seq::Sequence::from_string("TTTACGTTTT");
  // Shared substring "ACGT" at R[3], Q[3]; maximal both sides.
  const auto mems = mem::find_mems_naive(R, Q, 4);
  ASSERT_EQ(mems.size(), 1u);
  EXPECT_EQ(mems[0], (Mem{3, 3, 4}));
}

TEST(Naive, BoundaryMaximality) {
  // Match runs to both sequence starts and ends: still a MEM.
  const auto R = seq::Sequence::from_string("ACGTACGT");
  const auto Q = seq::Sequence::from_string("ACGTACGT");
  const auto mems = mem::find_mems_naive(R, Q, 8);
  ASSERT_EQ(mems.size(), 1u);
  EXPECT_EQ(mems[0], (Mem{0, 0, 8}));
}

TEST(Naive, RepeatedSeedManyMems) {
  const auto R = seq::Sequence::from_string("ACGTGGACGTCCACGT");
  const auto Q = seq::Sequence::from_string("TTACGTTT");
  // "ACGT" occurs three times in R, once in Q -> three MEMs of length 4.
  const auto mems = mem::find_mems_naive(R, Q, 4);
  ASSERT_EQ(mems.size(), 3u);
  for (const auto& m : mems) EXPECT_EQ(m.len, 4u);
}

TEST(Naive, SubMaximalMatchesExcluded) {
  // Q's "CGT" also matches inside R's "ACGT" but is not left-maximal there.
  const auto R = seq::Sequence::from_string("AACGTAA");
  const auto Q = seq::Sequence::from_string("GACGTAG");
  const auto mems = mem::find_mems_naive(R, Q, 3);
  // Expect exactly the maximal "ACGTA".
  ASSERT_EQ(mems.size(), 1u);
  EXPECT_EQ(mems[0], (Mem{1, 1, 5}));
}

TEST(Naive, EmptyInputs) {
  const auto R = seq::Sequence::from_string("ACGT");
  EXPECT_TRUE(mem::find_mems_naive(R, seq::Sequence(), 2).empty());
  EXPECT_TRUE(mem::find_mems_naive(seq::Sequence(), R, 2).empty());
}

TEST(CommonHelpers, LeftMaximalAtBoundaries) {
  const auto R = seq::Sequence::from_string("ACGT");
  const auto Q = seq::Sequence::from_string("ACGT");
  EXPECT_TRUE(mem::left_maximal(R, Q, 0, 2));
  EXPECT_TRUE(mem::left_maximal(R, Q, 2, 0));
  EXPECT_FALSE(mem::left_maximal(R, Q, 2, 2));
  EXPECT_TRUE(mem::left_maximal(R, Q, 1, 2));  // C vs A differ
}

TEST(CommonHelpers, SampledCandidateDedupe) {
  // MEM of length 12 at (r=4, q=0); grid step 4 -> in-MEM grid points at
  // r=4, 8, 12; only the first may emit.
  const auto R = seq::Sequence::from_string("TTTTACGTACGTACGTTTTT");
  const auto Q = seq::Sequence::from_string("ACGTACGTACGTGGGG");
  std::vector<Mem> out;
  mem::emit_sampled_candidate(R, Q, 4, 0, 4, 8, out);   // first grid point
  mem::emit_sampled_candidate(R, Q, 8, 4, 4, 8, out);   // interior: skipped
  mem::emit_sampled_candidate(R, Q, 12, 8, 4, 8, out);  // interior: skipped
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Mem{4, 0, 12}));
}

// ---------------------------------------------------------------------------
// Parameterized cross-finder equivalence sweep.
// ---------------------------------------------------------------------------

struct SweepCase {
  std::size_t ref_len;
  std::size_t query_len;
  double divergence;  // < 0: unrelated random pair
  std::uint32_t min_len;
  std::uint64_t seed;
};

void print_case(const SweepCase& c, std::ostream* os) {
  *os << "ref=" << c.ref_len << " query=" << c.query_len
      << " div=" << c.divergence << " L=" << c.min_len << " seed=" << c.seed;
}

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
  print_case(c, &os);
  return os;
}

class FinderEquivalence : public ::testing::TestWithParam<SweepCase> {
 protected:
  void build_pair(seq::Sequence& ref, seq::Sequence& query) const {
    const SweepCase& c = GetParam();
    if (c.divergence < 0) {
      ref = random_seq(c.ref_len, c.seed);
      query = random_seq(c.query_len, c.seed + 1);
    } else {
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
  }
};

TEST_P(FinderEquivalence, AllFindersAgree) {
  const SweepCase& c = GetParam();
  seq::Sequence ref, query;
  build_pair(ref, query);
  const std::vector<Mem> truth = mem::find_mems_naive(ref, query, c.min_len);

  mem::FinderOptions opt;
  opt.min_length = c.min_len;

  {
    mem::MummerFinder f;
    f.build_index(ref, opt);
    EXPECT_EQ(f.find(query), truth) << "mummer";
  }
  for (std::uint32_t k : {1u, 3u, std::min(8u, c.min_len)}) {
    mem::FinderOptions sparse_opt = opt;
    sparse_opt.sparseness = k;
    sparse_opt.threads = 3;  // exercise sharding
    {
      mem::SparseMemFinder f;
      f.build_index(ref, sparse_opt);
      EXPECT_EQ(f.find(query), truth) << "sparsemem K=" << k;
    }
    {
      mem::EssaMemFinder f;
      f.build_index(ref, sparse_opt);
      EXPECT_EQ(f.find(query), truth) << "essamem K=" << k;
    }
  }
  {
    mem::SlaMemFinder f;
    f.build_index(ref, opt);
    EXPECT_EQ(f.find(query), truth) << "slamem";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FinderEquivalence,
    ::testing::Values(
        // Related pairs across divergence levels and L values.
        SweepCase{2000, 2000, 0.01, 20, 1},
        SweepCase{2000, 2500, 0.05, 15, 2},
        SweepCase{3000, 1500, 0.002, 30, 3},
        SweepCase{1000, 1000, 0.10, 10, 4},
        // Unrelated pair: few, short MEMs.
        SweepCase{2000, 2000, -1.0, 12, 5},
        // Tiny L (dense output), tiny sequences.
        SweepCase{300, 300, 0.02, 8, 6},
        SweepCase{64, 64, 0.05, 6, 7},
        // Identical sequences: one giant MEM + repeat structure.
        SweepCase{1500, 1500, 0.0, 25, 8},
        // Highly repetitive genomes (tandem-heavy model).
        SweepCase{1200, 1200, 0.03, 14, 9}));

TEST(FinderEquivalence, RepetitiveTandemStress) {
  // Tandem repeats create seeds with hundreds of occurrences — the load
  // imbalance scenario of the paper's Fig. 6 — and many co-diagonal MEMs.
  std::string motif = "ACGGT";
  std::string r_str, q_str;
  for (int i = 0; i < 120; ++i) r_str += motif;
  q_str = r_str.substr(7, 400);
  q_str += "TTTT";
  q_str += r_str.substr(100, 200);
  const auto R = seq::Sequence::from_string(r_str);
  const auto Q = seq::Sequence::from_string(q_str);
  const auto truth = mem::find_mems_naive(R, Q, 12);
  ASSERT_FALSE(truth.empty());

  mem::FinderOptions opt;
  opt.min_length = 12;
  for (const std::string name : {"mummer", "sparsemem", "essamem", "slamem"}) {
    auto f = mem::create_finder(name);
    mem::FinderOptions o = opt;
    o.sparseness = (name == "sparsemem" || name == "essamem") ? 4 : 1;
    f->build_index(R, o);
    EXPECT_EQ(f->find(Q), truth) << name;
  }
}

TEST(Validate, AcceptsGroundTruthRejectsCorruptions) {
  const auto base = seq::GenomeModel{.length = 2000}.generate(33);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 34);
  auto truth = mem::find_mems_naive(base, query, 15);
  ASSERT_FALSE(truth.empty());
  EXPECT_TRUE(mem::validate_mems(base, query, truth, 15).ok());

  {  // too-short entry
    auto bad = truth;
    bad[0].len = 3;
    const auto rep = mem::validate_mems(base, query, bad, 15);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(rep.first_error.find("shorter"), std::string::npos);
  }
  {  // shifted start breaks character equality (or maximality)
    auto bad = truth;
    bad[0].r += 1;
    EXPECT_FALSE(mem::validate_mems(base, query, bad, 15).ok());
  }
  {  // truncation breaks right-maximality
    auto bad = truth;
    bad[0].len -= 1;
    const auto rep = mem::validate_mems(base, query, bad, 15);
    EXPECT_FALSE(rep.ok());
  }
  {  // duplicate breaks canonical order
    auto bad = truth;
    bad.push_back(bad.back());
    EXPECT_FALSE(mem::validate_mems(base, query, bad, 15).ok());
  }
  {  // out of bounds
    auto bad = truth;
    bad[0].r = static_cast<std::uint32_t>(base.size());
    const auto rep = mem::validate_mems(base, query, bad, 15);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(rep.first_error.find("bounds"), std::string::npos);
  }
}

TEST(Validate, EveryFinderPassesOnMediumInput) {
  const auto base = seq::GenomeModel{.length = 20000}.generate(35);
  seq::MutationModel mut;
  mut.snp_rate = 0.03;
  const auto query = mut.apply(base, 36);
  mem::FinderOptions opt;
  opt.min_length = 20;
  for (const auto& name : mem::finder_names()) {
    if (name == "naive") continue;
    auto finder = mem::create_finder(name);
    mem::FinderOptions o = opt;
    o.sparseness = (name == "sparsemem" || name == "essamem") ? 4 : 1;
    finder->build_index(base, o);
    const auto mems = finder->find(query);
    const auto rep = mem::validate_mems(base, query, mems, 20);
    EXPECT_TRUE(rep.ok()) << name << ": " << rep.first_error;
    EXPECT_GT(rep.checked, 0u) << name;
  }
}

TEST(FinderOptions, SparsenessBounds) {
  const auto R = random_seq(500, 30);
  mem::FinderOptions opt;
  opt.min_length = 10;
  opt.sparseness = 11;  // > L
  mem::SparseMemFinder sf;
  EXPECT_THROW(sf.build_index(R, opt), std::invalid_argument);
  mem::EssaMemFinder ef;
  EXPECT_THROW(ef.build_index(R, opt), std::invalid_argument);
}

// --- copMEM double-sampling finder -----------------------------------------

TEST(CopMem, ChooseParamsSatisfiesCoverageBound) {
  // Any raw MEM of length >= L contains a sampled (reference, query) pair
  // with a fitting K-mer iff k1 * k2 <= L - K + 1 and gcd(k1, k2) = 1
  // (docs/DESIGN.md). choose_params must deliver that for every legal (L, K).
  for (std::uint32_t L : {1u, 2u, 5u, 8u, 16u, 20u, 24u, 50u, 100u, 300u}) {
    for (unsigned K = 1; K <= std::min(L, 16u); ++K) {
      const auto p = mem::CopMemFinder::choose_params(L, K);
      const std::uint32_t limit = L - K + 1;
      EXPECT_GE(p.k1, 1u);
      EXPECT_GE(p.k2, 1u);
      EXPECT_LE(p.k1 * p.k2, limit) << "L=" << L << " K=" << K;
      EXPECT_EQ(std::gcd(p.k1, p.k2), 1u) << "L=" << L << " K=" << K;
      EXPECT_EQ(p.seed_len, K);
    }
  }
  EXPECT_THROW(mem::CopMemFinder::choose_params(10, 0), std::invalid_argument);
  EXPECT_THROW(mem::CopMemFinder::choose_params(10, 11), std::invalid_argument);
  EXPECT_THROW(mem::CopMemFinder::choose_params(40, 17), std::invalid_argument);
}

TEST(CopMem, AutoSeedLenIsAlwaysLegal) {
  for (const std::size_t ref_bases :
       {std::size_t{0}, std::size_t{17}, std::size_t{1000},
        std::size_t{1} << 20, std::size_t{1} << 32}) {
    for (std::uint32_t L : {1u, 4u, 12u, 20u, 100u}) {
      const unsigned K = mem::CopMemFinder::auto_seed_len(ref_bases, L);
      EXPECT_GE(K, 1u) << ref_bases << "/" << L;
      EXPECT_LE(K, std::min(L, 16u)) << ref_bases << "/" << L;
    }
  }
}

TEST(CopMem, AgreesWithNaiveAndEssaAcrossSamplingPhases) {
  // Plant shared segments at every offset modulo the sampling grid so MEMs
  // straddle each sampling-phase boundary; copmem must still equal the naive
  // truth (and essaMEM, the strongest prior finder) exactly.
  const auto base = seq::GenomeModel{.length = 900}.generate(81);
  const std::string r_str = base.to_string();
  std::string q_str = "TT";
  for (std::size_t s = 0; s < 24; ++s) {
    // Segment start walks every phase 0..23 of any grid up to 24; lengths
    // vary around L so some segments are exactly L, some longer.
    q_str += r_str.substr(31 * s + s % 24, 16 + (s % 7));
    q_str += "TTT";  // junk separator (also a valid base: keeps MEMs honest)
  }
  const auto R = seq::Sequence::from_string(r_str);
  const auto Q = seq::Sequence::from_string(q_str);
  const auto truth = mem::find_mems_naive(R, Q, 16);
  ASSERT_FALSE(truth.empty());

  mem::FinderOptions opt;
  opt.min_length = 16;
  for (const unsigned K : {0u, 1u, 4u, 8u, 11u}) {  // 0 = auto
    mem::CopMemFinder f;
    f.set_seed_len(K);
    f.build_index(R, opt);
    EXPECT_EQ(f.find(Q), truth) << "copmem K=" << K;
    const auto p = f.params();
    EXPECT_LE(p.k1 * p.k2, opt.min_length - p.seed_len + 1);
  }
  mem::EssaMemFinder essa;
  essa.build_index(R, opt);
  EXPECT_EQ(essa.find(Q), truth);
}

TEST(CopMem, DedupesMemReachableFromManySampledPairs) {
  // One long MEM covering >= 3 lattice pairs of the sampling grid: with
  // L = 24 and K = 4, choose_params gives k1 * k2 = 20, so a 100 bp match
  // holds at least four sampled (p, j) pairs — the finder must emit the MEM
  // exactly once (the minimal-pair rule in mem::emit_sampled_candidate).
  const auto core = random_seq(100, 91);
  const std::string match = core.to_string();
  const auto R = seq::Sequence::from_string("TTTTTTT" + match + "TTTTTTT");
  const auto Q = seq::Sequence::from_string("CCCCC" + match + "CCCCC");
  mem::FinderOptions opt;
  opt.min_length = 24;
  mem::CopMemFinder f;
  f.set_seed_len(4);
  f.build_index(R, opt);
  const auto p = f.params();
  ASSERT_GE(100u, 3 * p.k1 * p.k2 + p.seed_len)
      << "grid too coarse for the 3-pair premise";
  const auto got = f.find(Q);
  const auto truth = mem::find_mems_naive(R, Q, 24);
  EXPECT_EQ(got, truth);
  // The planted match itself appears exactly once.
  const Mem planted{7, 5, 100};
  EXPECT_EQ(std::count(got.begin(), got.end(), planted), 1);
}

TEST(SampledFinders, ShardedFindMatchesOneShard) {
  // The sampled finders share one sharded find (mem::find_sharded): any
  // shard count, run concurrently or back to back, yields the one-shard MEM
  // set.
  const auto base = seq::GenomeModel{.length = 4000}.generate(93);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(base, 94);
  for (const std::string name : {"copmem", "sparsemem", "essamem"}) {
    mem::FinderOptions opt;
    opt.min_length = 20;
    opt.sparseness = name == "copmem" ? 1 : 4;
    auto one = mem::create_finder(name);
    one->build_index(base, opt);
    const auto truth = one->find(query);
    ASSERT_FALSE(truth.empty()) << name;
    // The query is long enough that threads >= 2 really splits it.
    std::size_t probes = query.size() - (opt.min_length - opt.sparseness);
    if (const auto* cop = dynamic_cast<const mem::CopMemFinder*>(one.get())) {
      probes = (query.size() - cop->params().seed_len) / cop->params().k2 + 1;
    }
    EXPECT_GE(mem::shard_count(probes, 2), 2u) << name;
    EXPECT_GE(mem::shard_count(probes, 5), 3u) << name;
    for (const std::uint32_t threads : {1u, 2u, 5u}) {
      for (const bool sequential : {false, true}) {
        mem::FinderOptions sharded = opt;
        sharded.threads = threads;
        sharded.sequential_shards = sequential;
        auto f = mem::create_finder(name);
        f->build_index(base, sharded);
        EXPECT_EQ(f->find(query), truth)
            << name << " threads " << threads << " sequential " << sequential;
      }
    }
  }
}

TEST(SampledFinders, ShortQueryRunsOneShardInline) {
  // A find is split only as far as its probes pay for the pool round trips
  // (mem::kProbesPerShard): a read-sized query at threads 4 runs one shard,
  // on the calling thread.
  const auto ref = random_seq(2000, 97);
  seq::Sequence read;
  read.append(ref, 500, 150);
  mem::FinderOptions opt;
  opt.min_length = 30;
  opt.threads = 4;
  std::vector<std::thread::id> ran_on;
  double seconds = 0;
  const auto got = mem::find_sharded(
      ref, read, opt, read.size(),
      [&](std::size_t begin, std::size_t end, std::vector<Mem>&) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, read.size());
        ran_on.push_back(std::this_thread::get_id());
      },
      seconds);
  EXPECT_TRUE(got.empty());
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_EQ(mem::shard_count(0, 4), 1u);
  EXPECT_EQ(mem::shard_count(mem::kProbesPerShard + 1, 4), 2u);
  EXPECT_EQ(mem::shard_count(100 * mem::kProbesPerShard, 4), 4u);
}

TEST(CopMem, InjectedCandidateDropLosesExactlyOneMem) {
  const auto base = seq::GenomeModel{.length = 1500}.generate(95);
  seq::MutationModel mut;
  mut.snp_rate = 0.03;
  const auto query = mut.apply(base, 96);
  mem::FinderOptions opt;
  opt.min_length = 18;
  mem::CopMemFinder f;
  f.build_index(base, opt);
  const auto clean = f.find(query);
  ASSERT_GT(clean.size(), 1u);
  f.inject_candidate_drop(true);
  const auto faulted = f.find(query);
  EXPECT_EQ(faulted.size(), clean.size() - 1);
  f.inject_candidate_drop(false);
  EXPECT_EQ(f.find(query), clean);
}

TEST(FinderOptions, ZeroValuesRejectedByEveryFinder) {
  // Satellite contract: every finder validates FinderOptions at its
  // build_index entry — zero min_length or zero sparseness is a
  // deterministic std::invalid_argument, never a hang or a wrong answer.
  const auto R = random_seq(300, 37);
  for (const auto& name : mem::finder_names()) {
    auto f = mem::create_finder(name);
    mem::FinderOptions zero_l;
    zero_l.min_length = 0;
    EXPECT_THROW(f->build_index(R, zero_l), std::invalid_argument)
        << name << " accepted min_length=0";
    auto g = mem::create_finder(name);
    mem::FinderOptions zero_k;
    zero_k.min_length = 10;
    zero_k.sparseness = 0;
    EXPECT_THROW(g->build_index(R, zero_k), std::invalid_argument)
        << name << " accepted sparseness=0";
  }
}

TEST(Registry, CreatesEveryRegisteredFinder) {
  for (const auto& name : mem::finder_names()) {
    EXPECT_NO_THROW({ auto f = mem::create_finder(name); EXPECT_EQ(f->name(), name); })
        << name;
  }
  EXPECT_THROW(mem::create_finder("bogus"), std::invalid_argument);
}

TEST(Finders, FindBeforeBuildThrows) {
  const auto Q = random_seq(100, 31);
  EXPECT_THROW(mem::MummerFinder().find(Q), std::logic_error);
  EXPECT_THROW(mem::SparseMemFinder().find(Q), std::logic_error);
  EXPECT_THROW(mem::EssaMemFinder().find(Q), std::logic_error);
  EXPECT_THROW(mem::SlaMemFinder().find(Q), std::logic_error);
  EXPECT_THROW(mem::CopMemFinder().find(Q), std::logic_error);
}

// --- invalid-base (mask) policy --------------------------------------------
// Project rule (src/mem/clip.h): a non-ACGT base matches nothing — it
// terminates matches and never appears inside a MEM — and every finder must
// enforce it identically.

TEST(InvalidBases, NRunSplitsMemInEveryFinder) {
  // Identical sequences with one N at position 8: no match may span the N,
  // so the would-be full-length MEM splits into the two flanks (which also
  // match each other across the N — both sides are "ACGTACGT").
  const auto R = seq::Sequence::from_string_lenient("ACGTACGTNACGTACGT");
  const auto Q = R;
  const std::vector<Mem> expect{{0, 0, 8}, {0, 9, 8}, {9, 0, 8}, {9, 9, 8}};
  EXPECT_EQ(mem::find_mems_naive(R, Q, 5), expect);
  mem::FinderOptions opt;
  opt.min_length = 5;
  for (const auto& name : mem::finder_names()) {
    if (name == "naive" || name.starts_with("gpumem")) continue;
    auto f = mem::create_finder(name);
    f->build_index(R, opt);
    EXPECT_EQ(f->find(Q), expect) << name;
  }
  for (const auto backend : {core::Backend::kSimt, core::Backend::kNative}) {
    core::GpumemFinder f(backend);
    f.mutable_config().seed_len = 3;  // default 10 exceeds this tiny L
    f.build_index(R, opt);
    EXPECT_EQ(f.find(Q), expect) << f.name();
  }
}

TEST(InvalidBases, NNeverMatchesN) {
  // N-vs-N positions are placeholder-code-equal but must not match: with
  // L = 4 nothing survives, with L = 3 each flank matches each flank.
  const auto R = seq::Sequence::from_string_lenient("ACGNACG");
  const auto Q = seq::Sequence::from_string_lenient("ACGNACG");
  EXPECT_TRUE(mem::find_mems_naive(R, Q, 4).empty());
  EXPECT_EQ(mem::find_mems_naive(R, Q, 3),
            (std::vector<Mem>{{0, 0, 3}, {0, 4, 3}, {4, 0, 3}, {4, 4, 3}}));
}

TEST(InvalidBases, FlankBoundedByNIsMaximal) {
  // The match ends where the N starts — and that IS maximal, so validators
  // must accept it and finders must report it.
  const auto R = seq::Sequence::from_string_lenient("AAAACGTTNGG");
  const auto Q = seq::Sequence::from_string_lenient("CACGTTCC");
  // Shared "ACGTT": ref [3,8) vs query [1,6); ref side then hits N-adjacent
  // G at 8? No: ref[8]='N' blocks right-extension beyond position 7.
  const auto truth = mem::find_mems_naive(R, Q, 5);
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0], (Mem{3, 1, 5}));
  const auto rep = mem::validate_mems(R, Q, truth, 5);
  EXPECT_TRUE(rep.ok()) << rep.first_error;
}

TEST(InvalidBases, RandomizedNRunsAgreeAcrossFinders) {
  util::Xoshiro256 rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    // Related pair, then punch N runs into both sides.
    const auto base = seq::GenomeModel{.length = 1200}.generate(50 + trial);
    seq::MutationModel mut;
    mut.snp_rate = 0.02;
    const auto derived = mut.apply(base, 60 + trial);
    std::string r = base.to_string(), q = derived.to_string();
    for (auto* s : {&r, &q}) {
      const int runs = static_cast<int>(rng.range(1, 4));
      for (int k = 0; k < runs; ++k) {
        const std::size_t len = static_cast<std::size_t>(rng.range(1, 12));
        const std::size_t pos = rng.bounded(s->size() - len);
        for (std::size_t i = 0; i < len; ++i) (*s)[pos + i] = 'N';
      }
    }
    const auto R = seq::Sequence::from_string_lenient(r);
    const auto Q = seq::Sequence::from_string_lenient(q);
    const auto truth = mem::find_mems_naive(R, Q, 12);
    const auto rep = mem::validate_mems(R, Q, truth, 12);
    EXPECT_TRUE(rep.ok()) << rep.first_error;
    mem::FinderOptions opt;
    opt.min_length = 12;
    for (const auto& name : mem::finder_names()) {
      if (name == "naive") continue;
      auto f = mem::create_finder(name);
      f->build_index(R, opt);
      EXPECT_EQ(f->find(Q), truth) << name << " trial " << trial;
    }
  }
}

TEST(InvalidBases, LowercaseIsValidAndCaseInsensitive) {
  // Soft masking (lowercase) is NOT the invalid-base policy: the codec is
  // case-insensitive, so results must be identical to the uppercase input.
  const auto base = seq::GenomeModel{.length = 800}.generate(70);
  seq::MutationModel mut;
  mut.snp_rate = 0.03;
  const auto derived = mut.apply(base, 71);
  std::string r = base.to_string(), q = derived.to_string();
  const auto upper_truth = mem::find_mems_naive(
      seq::Sequence::from_string_lenient(r),
      seq::Sequence::from_string_lenient(q), 12);
  for (auto& c : r) c = static_cast<char>(std::tolower(c));
  for (std::size_t i = 0; i < q.size(); i += 2) {
    q[i] = static_cast<char>(std::tolower(q[i]));
  }
  const auto R = seq::Sequence::from_string_lenient(r);
  const auto Q = seq::Sequence::from_string_lenient(q);
  EXPECT_FALSE(R.has_invalid());
  EXPECT_EQ(mem::find_mems_naive(R, Q, 12), upper_truth);
  mem::FinderOptions opt;
  opt.min_length = 12;
  for (const auto& name : mem::finder_names()) {
    if (name == "naive") continue;
    auto f = mem::create_finder(name);
    f->build_index(R, opt);
    EXPECT_EQ(f->find(Q), upper_truth) << name;
  }
}

TEST(SlaMem, LazyMatchesEagerOnBoundaryCases) {
  const auto R = random_seq(400, 71);
  mem::FinderOptions opt;
  opt.min_length = 5;
  mem::SlaMemFinder eager(mem::SlaMemFinder::Probe::kNever);
  eager.build_index(R, opt);
  mem::SlaMemFinder lazy(/*force_lazy=*/true);
  lazy.build_index(R, opt);
  mem::SlaMemFinder sweep;  // the default policy
  sweep.build_index(R, opt);
  ASSERT_FALSE(eager.lazy());
  ASSERT_TRUE(lazy.lazy());
  ASSERT_EQ(sweep.policy(), mem::SlaMemFinder::Probe::kWhenItPays);

  // Query shorter than L: no window of length L exists.
  const auto tiny = random_seq(10, 72);
  EXPECT_TRUE(eager.find_at(tiny, 20).empty());
  EXPECT_TRUE(lazy.find_at(tiny, 20).empty());
  EXPECT_TRUE(sweep.find_at(tiny, 20).empty());

  // L == 1: every matching position participates; modes agree bit-for-bit.
  seq::Sequence probe;
  probe.append(R, 100, 30);
  const auto e1 = eager.find_at(probe, 1);
  EXPECT_FALSE(e1.empty());
  EXPECT_EQ(e1, lazy.find_at(probe, 1));
  EXPECT_EQ(e1, sweep.find_at(probe, 1));

  // L larger than the reference: nothing can match, and neither mode may
  // throw or scan out of bounds.
  const auto long_q = random_seq(600, 73);
  const auto over = static_cast<std::uint32_t>(R.size()) + 10;
  EXPECT_TRUE(eager.find_at(long_q, over).empty());
  EXPECT_TRUE(lazy.find_at(long_q, over).empty());
  EXPECT_TRUE(sweep.find_at(long_q, over).empty());

  // All-N query: every window is clipped away in both modes.
  const auto all_n = seq::Sequence::from_string_lenient(std::string(64, 'N'));
  EXPECT_TRUE(eager.find_at(all_n, 20).empty());
  EXPECT_TRUE(lazy.find_at(all_n, 20).empty());
  EXPECT_TRUE(sweep.find_at(all_n, 20).empty());

  // Depth exactly L at the last window start: |query| == L and the window
  // occurs verbatim, so MS[0] == L with no slack on either side.
  seq::Sequence exact;
  exact.append(R, 37, 32);
  const auto ee = eager.find_at(exact, 32);
  const auto le = lazy.find_at(exact, 32);
  EXPECT_EQ(ee, le);
  EXPECT_EQ(ee, sweep.find_at(exact, 32));
  ASSERT_FALSE(ee.empty());
  bool pinned = false;
  for (const Mem& m : ee) pinned |= (m.r == 37 && m.q == 0 && m.len == 32);
  EXPECT_TRUE(pinned);
}

/// A 3000 bp random reference and a copy with a point mutation every
/// 10-40 bases: long shared stretches at low L, alignment deserts at high L.
std::pair<seq::Sequence, seq::Sequence> mutated_pair(std::uint64_t seed) {
  auto R = random_seq(3000, seed);
  util::Xoshiro256 rng(seed + 1000);
  std::vector<std::uint8_t> codes(R.size());
  for (std::size_t i = 0; i < R.size(); ++i) codes[i] = R.base(i);
  for (std::size_t i = 0; i < codes.size(); i += 10 + rng.bounded(30)) {
    codes[i] = static_cast<std::uint8_t>((codes[i] + 1 + rng.bounded(3)) & 3);
  }
  return {std::move(R), seq::Sequence::from_codes(codes)};
}

TEST(SlaMem, LazyMatchesEagerOnMutatedPairs) {
  // Bit-identity property across the L ladder on reference/query pairs in
  // the lazy sweep's target regime (mutated_pair). All three policies
  // visit the same depth-L intervals and locate only their left-maximal
  // rows. Such a row always extends >= L, and without invalid bases
  // clipping is the identity and each (r, j) is emitted once, so rows
  // located == raw candidates == MEMs.
  for (const std::uint64_t seed : {81u, 82u, 83u}) {
    const auto [R, Q] = mutated_pair(seed);
    mem::FinderOptions opt;
    opt.min_length = 10;
    mem::SlaMemFinder eager(mem::SlaMemFinder::Probe::kNever);
    eager.build_index(R, opt);
    mem::SlaMemFinder lazy(/*force_lazy=*/true);
    lazy.build_index(R, opt);
    mem::SlaMemFinder sweep;  // the default policy
    sweep.build_index(R, opt);
    for (const std::uint32_t L : {10u, 20u, 40u, 80u, 160u}) {
      const auto e = eager.find_at(Q, L);
      const auto l = lazy.find_at(Q, L);
      const auto d = sweep.find_at(Q, L);
      EXPECT_EQ(e, l) << "seed=" << seed << " L=" << L;
      EXPECT_EQ(e, d) << "seed=" << seed << " L=" << L;
      const auto ew = eager.last_find_work();
      const auto lw = lazy.last_find_work();
      const auto dw = sweep.last_find_work();
      EXPECT_EQ(ew.rows_located, e.size()) << "seed=" << seed << " L=" << L;
      EXPECT_EQ(lw.rows_located, l.size()) << "seed=" << seed << " L=" << L;
      EXPECT_EQ(dw.rows_located, d.size()) << "seed=" << seed << " L=" << L;
      EXPECT_EQ(ew.rows_visited, lw.rows_visited)
          << "seed=" << seed << " L=" << L;
      EXPECT_EQ(ew.rows_visited, dw.rows_visited)
          << "seed=" << seed << " L=" << L;
      if (L == 10) {
        EXPECT_FALSE(e.empty()) << "seed=" << seed;
        // Inside a shared stretch every start but the first finds its own
        // aligned row, which extends further left: the BWT test skips it.
        EXPECT_GT(ew.rows_visited, ew.rows_located) << "seed=" << seed;
      }
    }
  }
}

TEST(SlaMem, DefaultSweepProbesOnlyWhereItPays) {
  // Work counts on the mutated-pair ladder. Where the default policy issues
  // no probe it runs the eager recurrence itself, so its work equals the
  // eager reference's field for field; at L <= 33 a probe kills 2 starts
  // and never pays. Where it probes, the choice was made once for the whole
  // find, so its work equals the always-probing finder's. At L 160 deserts
  // dominate: it probes, and its backward steps plus parent jumps fall
  // below eager's.
  for (const std::uint64_t seed : {81u, 82u, 83u}) {
    const auto [R, Q] = mutated_pair(seed);
    mem::FinderOptions opt;
    opt.min_length = 10;
    mem::SlaMemFinder eager(mem::SlaMemFinder::Probe::kNever);
    eager.build_index(R, opt);
    mem::SlaMemFinder lazy(/*force_lazy=*/true);
    lazy.build_index(R, opt);
    mem::SlaMemFinder sweep;
    sweep.build_index(R, opt);
    for (const std::uint32_t L : {10u, 20u, 30u, 40u, 80u, 160u}) {
      EXPECT_EQ(eager.find_at(Q, L), sweep.find_at(Q, L))
          << "seed=" << seed << " L=" << L;
      lazy.find_at(Q, L);
      const auto ew = eager.last_find_work();
      const auto lw = lazy.last_find_work();
      const auto dw = sweep.last_find_work();
      EXPECT_EQ(ew.probes, 0u);
      EXPECT_EQ(ew.starts_killed, 0u);
      EXPECT_GT(ew.backward_steps, 0u);
      EXPECT_LE(dw.probes_absent, dw.probes);
      EXPECT_LE(dw.starts_killed, Q.size() - L + 1);
      if (L <= 33) {
        EXPECT_EQ(dw.probes, 0u) << "seed=" << seed << " L=" << L;
      }
      if (dw.probes == 0) {
        EXPECT_TRUE(dw == ew) << "seed=" << seed << " L=" << L;
      } else {
        EXPECT_TRUE(dw == lw) << "seed=" << seed << " L=" << L;
      }
      if (L == 160) {
        EXPECT_GT(dw.probes_absent, 0u) << "seed=" << seed;
        EXPECT_GT(dw.starts_killed, 0u) << "seed=" << seed;
        EXPECT_LT(dw.backward_steps + dw.parent_jumps,
                  ew.backward_steps + ew.parent_jumps)
            << "seed=" << seed;
      }
    }
  }
}

TEST(SlaMem, WorkIsExportedAsObsCounters) {
  // With the obs registry on, each find adds its Work to mem.slamem.*.
  const auto [R, Q] = mutated_pair(84);
  mem::FinderOptions opt;
  opt.min_length = 80;
  mem::SlaMemFinder f;
  f.build_index(R, opt);
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  f.find(Q);
  const auto w1 = f.last_find_work();
  f.find(Q);
  reg.set_enabled(false);
  const auto w2 = f.last_find_work();
  ASSERT_GT(w1.probes, 0u);
  obs::Metrics& m = reg.metrics();
  EXPECT_EQ(m.counter("mem.slamem.backward_steps").value(),
            w1.backward_steps + w2.backward_steps);
  EXPECT_EQ(m.counter("mem.slamem.parent_jumps").value(),
            w1.parent_jumps + w2.parent_jumps);
  EXPECT_EQ(m.counter("mem.slamem.probes").value(), w1.probes + w2.probes);
  EXPECT_EQ(m.counter("mem.slamem.probes_absent").value(),
            w1.probes_absent + w2.probes_absent);
  EXPECT_EQ(m.counter("mem.slamem.starts_killed").value(),
            w1.starts_killed + w2.starts_killed);
  reg.reset();
}

// slaMEM under every probe policy against the naive oracle at one L;
// returns the truth.
std::vector<Mem> expect_slamem_is_naive(const seq::Sequence& R,
                                        const seq::Sequence& Q,
                                        std::uint32_t L,
                                        const std::string& what) {
  const auto truth = mem::find_mems_naive(R, Q, L);
  mem::FinderOptions opt;
  opt.min_length = L;
  using Probe = mem::SlaMemFinder::Probe;
  for (const Probe policy :
       {Probe::kNever, Probe::kWhenItPays, Probe::kAlways}) {
    mem::SlaMemFinder f(policy);
    f.build_index(R, opt);
    EXPECT_EQ(f.find(Q), truth)
        << what << " policy " << static_cast<int>(policy);
  }
  return truth;
}

bool has_start(const std::vector<Mem>& mems, std::uint32_t r, std::uint32_t q) {
  return std::any_of(mems.begin(), mems.end(),
                     [&](const Mem& m) { return m.r == r && m.q == q; });
}

TEST(SlaMem, LeftCharacterSkipEdgeCases) {
  const std::string X = random_seq(200, 101).to_string();
  const std::string Y = random_seq(200, 102).to_string();
  const std::string M = random_seq(40, 103).to_string();
  const auto S = [](const std::string& s) {
    return seq::Sequence::from_string_lenient(s);
  };
  // A MEM at q = 0: no query base left of the window, nothing is skipped.
  EXPECT_TRUE(has_start(
      expect_slamem_is_naive(S(X + M + Y), S(M + Y.substr(0, 60)), 12, "q=0"),
      200, 0));
  // A MEM at r = 0: its row is the primary row, '$' in the BWT, which must
  // not read as the query's A (the code '$' is stored as) — nor, at q = 0
  // too, as "no query base".
  EXPECT_TRUE(has_start(
      expect_slamem_is_naive(S(M + X), S(Y + "A" + M + X), 12, "r=0"), 0,
      201));
  EXPECT_TRUE(has_start(
      expect_slamem_is_naive(S(M + X), S(M + Y), 12, "r=0 q=0"), 0, 0));
  // Homopolymer and tandem-repeat references: every row of the depth-L
  // interval but the primary one shares the left character.
  for (const std::string& R : {std::string(52, 'A'), [] {
                                std::string t;
                                for (int i = 0; i < 17; ++i) t += "ACG";
                                return t;
                              }()}) {
    for (const std::string& q :
         {R.substr(0, 30), "T" + R.substr(0, 30) + "T",
          "G" + R.substr(1, 25) + "TT" + R.substr(0, 20)}) {
      EXPECT_FALSE(
          expect_slamem_is_naive(S(R), S(q), 8, R + " vs " + q).empty());
    }
  }
  // An N directly left of the match, in R and in Q: its placeholder code 0
  // reads as A in the BWT, so a query A (or N) left of the window drops the
  // row. The MEM still comes out, through the mask-blind candidate one base
  // further left and the clip.
  for (const auto& [r_left, q_left] :
       std::vector<std::pair<std::string, std::string>>{
           {"N", "A"}, {"A", "N"}, {"N", "N"}, {"N", "C"}, {"G", "N"}}) {
    const auto R = S(X + r_left + M + Y);
    const auto Q = S(Y.substr(0, 50) + q_left + M + X.substr(0, 50));
    EXPECT_TRUE(has_start(
        expect_slamem_is_naive(R, Q, 12, "N left: " + r_left + "/" + q_left),
        201, 51));
  }
}

TEST(Finders, QueryShorterThanL) {
  const auto R = random_seq(500, 32);
  const auto Q = random_seq(8, 33);
  mem::FinderOptions opt;
  opt.min_length = 20;
  for (const std::string name : {"mummer", "sparsemem", "essamem", "slamem"}) {
    auto f = mem::create_finder(name);
    f->build_index(R, opt);
    EXPECT_TRUE(f->find(Q).empty()) << name;
  }
}

}  // namespace
}  // namespace gm
