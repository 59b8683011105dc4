// Sparse SA interval search, ESA descent, FM-index, and k-mer index tests.
#include <gtest/gtest.h>

#include "index/esa.h"
#include "index/fm_index.h"
#include "index/lcp.h"
#include "index/kmer_index.h"
#include "index/sa_search.h"
#include "index/sparse_suffix_array.h"
#include "index/suffix_array.h"
#include "seq/synthetic.h"
#include "util/rng.h"

namespace gm {
namespace {

seq::Sequence random_seq(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.bounded(4));
  return seq::Sequence::from_codes(codes);
}

// Brute-force interval: scan all positions in `positions` matching the
// pattern, then locate the run in the sorted array.
std::vector<std::uint32_t> brute_matches(const seq::Sequence& ref,
                                         const std::vector<std::uint32_t>& positions,
                                         const seq::Sequence& query,
                                         std::size_t qpos, std::size_t depth) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t p : positions) {
    if (p + depth <= ref.size() &&
        ref.common_prefix(p, query, qpos, depth) == depth) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> interval_positions(const std::vector<std::uint32_t>& sa,
                                              index::SaInterval iv) {
  std::vector<std::uint32_t> out(sa.begin() + iv.lo, sa.begin() + iv.hi);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SaSearch, FindIntervalMatchesBrute) {
  const seq::Sequence ref = random_seq(3000, 21);
  const seq::Sequence query = random_seq(500, 22);
  const auto sa = index::build_suffix_array(ref);
  for (std::size_t q = 0; q + 12 < query.size(); q += 37) {
    for (std::size_t depth : {1u, 4u, 8u, 12u}) {
      const auto iv = index::find_interval(ref, sa, query, q, depth);
      EXPECT_EQ(interval_positions(sa, iv),
                brute_matches(ref, sa, query, q, depth))
          << "q=" << q << " depth=" << depth;
    }
  }
}

TEST(SaSearch, PatternPastQueryEndIsEmpty) {
  const seq::Sequence ref = random_seq(100, 1);
  const seq::Sequence query = random_seq(10, 2);
  const auto sa = index::build_suffix_array(ref);
  EXPECT_TRUE(index::find_interval(ref, sa, query, 5, 6).empty());
}

TEST(SaSearch, FindLongestIsMaximal) {
  // Query contains an exact copy of a reference chunk.
  const seq::Sequence ref = random_seq(2000, 3);
  seq::Sequence query = random_seq(50, 4);
  query.append(ref, 700, 90);
  const auto sa = index::build_suffix_array(ref);
  const auto lm = index::find_longest(ref, sa, query, 50, 1000);
  EXPECT_GE(lm.length, 90u);
  EXPECT_FALSE(lm.interval.empty());
}

TEST(SparseSuffixArray, PositionsAreSortedSuffixes) {
  const seq::Sequence ref = random_seq(4000, 5);
  for (std::uint32_t k : {1u, 3u, 8u}) {
    const index::SparseSuffixArray ssa(ref, k);
    const auto& pos = ssa.positions();
    ASSERT_EQ(pos.size(), (ref.size() + k - 1) / k);
    for (std::uint32_t p : pos) EXPECT_EQ(p % k, 0u);
    for (std::size_t i = 1; i < pos.size(); ++i) {
      const std::size_t c = ref.common_prefix(pos[i - 1], ref, pos[i], ref.size());
      if (pos[i - 1] + c < ref.size() && pos[i] + c < ref.size()) {
        EXPECT_LT(ref.base(pos[i - 1] + c), ref.base(pos[i] + c));
      }
    }
  }
  EXPECT_THROW(index::SparseSuffixArray(ref, 0), std::invalid_argument);
}

TEST(Esa, DescendMatchesBinarySearch) {
  const seq::Sequence ref = random_seq(3000, 6);
  const seq::Sequence query = random_seq(400, 7);
  for (std::uint32_t k : {1u, 4u}) {
    const index::EnhancedSuffixArray esa(ref, k);
    index::SparseSuffixArray ssa(ref, k);
    for (std::size_t q = 0; q + 16 < query.size(); q += 23) {
      for (std::size_t cap : {2u, 6u, 10u, 16u}) {
        const auto d = esa.descend(query, q, cap);
        // The ESA descent reports the longest match <= cap; verify its
        // interval equals the binary-search interval at that depth and that
        // depth+1 has no matches (when below cap).
        const auto iv =
            index::find_interval(ref, ssa.positions(), query, q, d.matched);
        EXPECT_EQ(interval_positions(ssa.positions(), d.interval),
                  interval_positions(ssa.positions(), iv))
            << "q=" << q << " cap=" << cap << " K=" << k;
        if (d.matched < cap) {
          EXPECT_TRUE(index::find_interval(ref, ssa.positions(), query, q,
                                           d.matched + 1)
                          .empty())
              << "q=" << q << " cap=" << cap << " K=" << k;
        }
      }
    }
  }
}

TEST(Esa, DescendOnRepetitiveText) {
  const seq::Sequence ref = seq::Sequence::from_string(
      "ACACACACACACACGTGTGTGTGTACACACAC");
  const index::EnhancedSuffixArray esa(ref, 1);
  const seq::Sequence query = seq::Sequence::from_string("ACACACAC");
  const auto d = esa.descend(query, 0, 8);
  EXPECT_EQ(d.matched, 8u);
  EXPECT_FALSE(d.interval.empty());
}

TEST(Esa, SingleSuffix) {
  const seq::Sequence ref = seq::Sequence::from_string("ACGTACGA");
  const index::EnhancedSuffixArray esa(ref, 8);  // samples only position 0
  const seq::Sequence query = seq::Sequence::from_string("ACGTAC");
  const auto d = esa.descend(query, 0, 6);
  EXPECT_EQ(d.matched, 6u);
  EXPECT_EQ(d.interval.size(), 1u);
}

TEST(FmIndex, RankMatchesNaive) {
  const seq::Sequence text = random_seq(700, 8);
  const index::FmIndex fm(text);
  // Reconstruct the BWT naively for validation (-1 = '$').
  const auto sa = index::build_suffix_array(text);
  std::vector<int> bwt{static_cast<int>(text.base(text.size() - 1))};
  for (const std::uint32_t pos : sa) {
    bwt.push_back(pos == 0 ? -1 : static_cast<int>(text.base(pos - 1)));
  }
  for (std::uint8_t c = 0; c < 4; ++c) {
    std::uint32_t count = 0;
    for (std::uint32_t i = 0; i <= text.size(); ++i) {
      EXPECT_EQ(fm.rank(c, i), count) << "c=" << int(c) << " i=" << i;
      if (bwt[i] == c) ++count;
    }
    EXPECT_EQ(fm.rank(c, static_cast<std::uint32_t>(text.size()) + 1), count);
  }
}

TEST(FmIndex, BackwardSearchCountsOccurrences) {
  const seq::Sequence text = random_seq(5000, 9);
  const index::FmIndex fm(text);
  util::Xoshiro256 rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t plen = 1 + rng.bounded(10);
    const std::size_t at = rng.bounded(text.size() - plen);
    const seq::Sequence pat = text.subsequence(at, plen);
    index::SaInterval iv = fm.all_rows();
    for (std::size_t i = plen; i-- > 0;) {
      iv = fm.extend(iv, pat.base(i));
    }
    // Count occurrences naively.
    std::uint32_t expect = 0;
    for (std::size_t p = 0; p + plen <= text.size(); ++p) {
      if (text.common_prefix(p, pat, 0, plen) == plen) ++expect;
    }
    EXPECT_EQ(iv.size(), expect) << "trial " << trial;
  }
}

TEST(FmIndex, LocateRecoversPositions) {
  const seq::Sequence text = random_seq(2000, 11);
  for (std::uint32_t sample : {1u, 7u, 32u}) {
    const index::FmIndex fm(text, sample);
    const auto sa = index::build_suffix_array(text);
    for (std::uint32_t row = 0; row <= text.size(); row += 13) {
      const std::uint32_t expect = row == 0 ? static_cast<std::uint32_t>(text.size())
                                            : sa[row - 1];
      EXPECT_EQ(fm.locate(row), expect) << "row=" << row << " s=" << sample;
    }
  }
}

TEST(FmIndex, BwtAtIsTheCharacterLeftOfEachSuffix) {
  // Every row: bwt_at(row) == text[locate(row) - 1], and 4 ('$') for the
  // primary row, the one suffix starting the text. An N stores its
  // placeholder code 0, so it reads as A here too; the deserialized index
  // answers the same.
  std::string s = random_seq(900, 14).to_string();
  s.replace(300, 5, "NNNNN");
  s[0] = 'N';
  const auto text = seq::Sequence::from_string_lenient(s);
  const index::FmIndex fm(text);
  std::vector<std::uint8_t> bytes;
  fm.serialize(bytes);
  const index::FmIndex back = index::FmIndex::deserialize(bytes);
  std::uint32_t primaries = 0;
  for (std::uint32_t row = 0; row < fm.rows(); ++row) {
    const std::uint32_t pos = fm.locate(row);
    const std::uint8_t expect = pos == 0 ? 4 : text.base(pos - 1);
    primaries += pos == 0;
    EXPECT_EQ(fm.bwt_at(row), expect) << "row=" << row << " pos=" << pos;
    EXPECT_EQ(back.bwt_at(row), expect) << "row=" << row;
  }
  EXPECT_EQ(primaries, 1u);
}

TEST(FmIndex, LcpAtMatchesKasaiIncludingLongValues) {
  // Embed a long repeat so some LCP values exceed the 8-bit inline storage.
  seq::Sequence text = random_seq(600, 12);
  text.append(text, 100, 400);  // duplicate a 400-base block
  const index::FmIndex fm(text);
  const auto sa = index::build_suffix_array(text);
  const auto lcp = index::build_lcp_kasai(text, sa);
  bool saw_long = false;
  for (std::uint32_t row = 2; row <= text.size(); ++row) {
    EXPECT_EQ(fm.lcp_at(row), lcp[row - 1]) << "row=" << row;
    saw_long |= lcp[row - 1] >= 255;
  }
  EXPECT_TRUE(saw_long) << "test construction should produce LCP >= 255";
  EXPECT_EQ(fm.lcp_at(0), 0u);
  EXPECT_EQ(fm.lcp_at(1), 0u);
}

TEST(FmIndex, WidenFindsAllDepthSharers) {
  const seq::Sequence text = random_seq(3000, 13);
  const index::FmIndex fm(text);
  // Take a pattern with several occurrences at small depth.
  const seq::Sequence pat = text.subsequence(1234, 9);
  index::SaInterval iv = fm.all_rows();
  for (std::size_t i = pat.size(); i-- > 0;) iv = fm.extend(iv, pat.base(i));
  ASSERT_FALSE(iv.empty());
  for (std::uint32_t depth : {9u, 6u, 3u}) {
    const index::SaInterval wide = fm.widen(iv, depth);
    // Every row in `wide` must locate to a position matching depth chars.
    for (std::uint32_t row = wide.lo; row < wide.hi; ++row) {
      const std::uint32_t p = fm.locate(row);
      ASSERT_LE(p + depth, text.size());
      EXPECT_EQ(text.common_prefix(p, pat, 0, depth), depth);
    }
    // And the widened interval has exactly the brute-force count.
    std::uint32_t expect = 0;
    for (std::size_t p = 0; p + depth <= text.size(); ++p) {
      if (text.common_prefix(p, pat, 0, depth) == depth) ++expect;
    }
    EXPECT_EQ(wide.size(), expect) << "depth=" << depth;
  }
}

TEST(FmIndex, WidenMaxRowsCapThrowsTyped) {
  const seq::Sequence text = random_seq(3000, 13);
  const index::FmIndex fm(text);
  const seq::Sequence pat = text.subsequence(1234, 9);
  index::SaInterval iv = fm.all_rows();
  for (std::size_t i = pat.size(); i-- > 0;) iv = fm.extend(iv, pat.base(i));
  ASSERT_FALSE(iv.empty());
  const index::SaInterval unbounded = fm.widen(iv, 3);
  ASSERT_GT(unbounded.size(), iv.size());  // widening must actually expand
  // Unbounded (0) and generous caps agree bit-for-bit.
  const index::SaInterval capped = fm.widen(iv, 3, unbounded.size());
  EXPECT_EQ(capped.lo, unbounded.lo);
  EXPECT_EQ(capped.hi, unbounded.hi);
  // A cap below the true interval size trips the typed overflow error.
  EXPECT_THROW(fm.widen(iv, 3, unbounded.size() - 1),
               index::WidenOverflowError);
  EXPECT_THROW(fm.widen(iv, 3, 1), index::WidenOverflowError);
  try {
    fm.widen(iv, 3, 1);
    FAIL() << "expected WidenOverflowError";
  } catch (const index::WidenOverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("widen"), std::string::npos);
  }
}

TEST(KmerIndex, LookupMatchesScan) {
  const seq::Sequence ref = random_seq(5000, 14);
  for (std::uint32_t step : {1u, 3u, 11u}) {
    const index::KmerIndex idx(ref, 0, ref.size(), 8, step);
    util::Xoshiro256 rng(15);
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t at = rng.bounded(ref.size() - 8);
      const std::uint64_t seed = ref.kmer(at, 8);
      std::vector<std::uint32_t> expect;
      for (std::uint32_t p = 0; p + 8 <= ref.size(); p += step) {
        if (ref.kmer(p, 8) == seed) expect.push_back(p);
      }
      const auto got = idx.lookup(seed);
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expect);
    }
  }
}

TEST(KmerIndex, RangeRestrictionUsesGlobalGrid) {
  const seq::Sequence ref = random_seq(1000, 16);
  const index::KmerIndex idx(ref, 333, 667, 6, 10);
  // All stored locations lie on the global grid and inside [333, 667).
  for (std::uint32_t p : idx.locs()) {
    EXPECT_EQ(p % 10, 0u);
    EXPECT_GE(p, 340u);  // first multiple of 10 >= 333
    EXPECT_LT(p, 667u);
  }
  // Buckets are sorted.
  for (std::size_t s = 0; s + 1 < idx.ptrs().size(); ++s) {
    for (std::uint32_t i = idx.ptrs()[s] + 1; i < idx.ptrs()[s + 1]; ++i) {
      EXPECT_LT(idx.locs()[i - 1], idx.locs()[i]);
    }
  }
}

TEST(KmerIndex, OccurrenceHistogramTotals) {
  const seq::Sequence ref = random_seq(2000, 17);
  const index::KmerIndex idx(ref, 0, ref.size(), 5, 1);
  const auto hist = idx.occurrence_histogram();
  std::uint64_t weighted = 0;
  for (const auto& [occ, count] : hist.bins()) weighted += occ * count;
  EXPECT_EQ(weighted, idx.locs().size());
}

TEST(KmerIndex, RejectsBadParameters) {
  const seq::Sequence ref = random_seq(100, 18);
  EXPECT_THROW(index::KmerIndex(ref, 0, 100, 0, 1), std::invalid_argument);
  EXPECT_THROW(index::KmerIndex(ref, 0, 100, 17, 1), std::invalid_argument);
  EXPECT_THROW(index::KmerIndex(ref, 0, 100, 8, 0), std::invalid_argument);
}

TEST(KmerIndex, PositionOverflowGuardNamesTheLimit) {
  // References beyond 2^32 - 1 bases cannot be indexed with uint32_t
  // location arrays; the guard must fail deterministically and name the
  // limit (the builders and the .gmidx reader all route through it).
  EXPECT_NO_THROW(index::check_position_range(0, "KmerIndex"));
  EXPECT_NO_THROW(
      index::check_position_range(index::kMaxIndexableBases, "KmerIndex"));
  try {
    index::check_position_range(index::kMaxIndexableBases + 1, "KmerIndex");
    FAIL() << "oversized reference was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("KmerIndex"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4294967295"), std::string::npos) << msg;
    EXPECT_NE(msg.find("uint32_t"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace gm
