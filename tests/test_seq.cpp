// Sequence, FASTA, and synthetic-genome tests.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "seq/fasta.h"
#include "seq/packed.h"
#include "seq/sequence.h"
#include "seq/synthetic.h"
#include "util/cli.h"
#include "util/rng.h"

namespace gm {
namespace {

using seq::Sequence;

TEST(Alphabet, EncodeDecodeRoundTrip) {
  EXPECT_EQ(seq::encode_base('A'), seq::kA);
  EXPECT_EQ(seq::encode_base('c'), seq::kC);
  EXPECT_EQ(seq::encode_base('G'), seq::kG);
  EXPECT_EQ(seq::encode_base('t'), seq::kT);
  EXPECT_EQ(seq::encode_base('N'), seq::kInvalidBase);
  for (std::uint8_t b = 0; b < 4; ++b) {
    EXPECT_EQ(seq::encode_base(seq::decode_base(b)), b);
  }
}

TEST(Alphabet, ComplementIsInvolution) {
  for (std::uint8_t b = 0; b < 4; ++b) {
    EXPECT_EQ(seq::complement(seq::complement(b)), b);
    EXPECT_NE(seq::complement(b), b);
  }
}

TEST(Sequence, FromStringAndBack) {
  const std::string s = "ACGTACGTTTGGCCAA";
  const Sequence seq = Sequence::from_string(s);
  ASSERT_EQ(seq.size(), s.size());
  EXPECT_EQ(seq.to_string(), s);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(seq::decode_base(seq.base(i)), s[i]);
  }
}

TEST(Sequence, FromStringRejectsInvalid) {
  EXPECT_THROW(Sequence::from_string("ACGN"), std::invalid_argument);
}

TEST(Sequence, CrossWordBoundaries) {
  // 100 bases spans four 32-base words; every base must survive packing.
  util::Xoshiro256 rng(7);
  std::string s;
  for (int i = 0; i < 100; ++i) s.push_back(seq::decode_base(rng.bounded(4) & 3));
  const Sequence seq = Sequence::from_string(s);
  EXPECT_EQ(seq.to_string(), s);
}

TEST(Sequence, Window64GathersAcrossWords) {
  util::Xoshiro256 rng(11);
  std::vector<std::uint8_t> codes(200);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.bounded(4));
  const Sequence seq = Sequence::from_codes(codes);
  for (std::size_t i = 0; i + 32 <= codes.size(); i += 7) {
    const std::uint64_t w = seq.window64(i);
    for (unsigned k = 0; k < 32; ++k) {
      EXPECT_EQ((w >> (2 * k)) & 3, codes[i + k]) << "i=" << i << " k=" << k;
    }
  }
}

TEST(Sequence, KmerMatchesSubstring) {
  const Sequence seq = Sequence::from_string("ACGTACGTGGTTCCAA");
  for (unsigned k = 1; k <= 8; ++k) {
    for (std::size_t i = 0; i + k <= seq.size(); ++i) {
      const std::uint64_t a = seq.kmer(i, k);
      const Sequence sub = seq.subsequence(i, k);
      EXPECT_EQ(a, sub.kmer(0, k));
    }
  }
}

TEST(Sequence, CommonPrefixExact) {
  util::Xoshiro256 rng(13);
  std::vector<std::uint8_t> a(500), b(500);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint8_t>(rng.bounded(4));
  b = a;
  b[123] = static_cast<std::uint8_t>((b[123] + 1) & 3);
  b[457] = static_cast<std::uint8_t>((b[457] + 1) & 3);
  const Sequence sa = Sequence::from_codes(a);
  const Sequence sb = Sequence::from_codes(b);
  EXPECT_EQ(sa.common_prefix(0, sb, 0, 500), 123u);
  EXPECT_EQ(sa.common_prefix(124, sb, 124, 500), 457u - 124u);
  EXPECT_EQ(sa.common_prefix(0, sb, 0, 50), 50u);  // capped
  EXPECT_EQ(sa.common_prefix(458, sb, 458, 500), 42u);  // runs to the end
}

TEST(Sequence, CommonSuffixExact) {
  const Sequence a = Sequence::from_string("TTTACGTACGT");
  const Sequence b = Sequence::from_string("GGGACGTACGT");
  // Compare backwards from the last characters.
  EXPECT_EQ(a.common_suffix(10, b, 10, 100), 8u);
  EXPECT_EQ(a.common_suffix(10, b, 10, 3), 3u);  // capped
}

TEST(Sequence, CommonPrefixAtBoundaries) {
  const Sequence a = Sequence::from_string("ACGT");
  const Sequence b = Sequence::from_string("ACGTTT");
  EXPECT_EQ(a.common_prefix(0, b, 0, 100), 4u);
  EXPECT_EQ(a.common_prefix(4, b, 4, 100), 0u);  // off the end of a
  EXPECT_EQ(a.common_prefix(0, b, 6, 100), 0u);
}

TEST(Sequence, ReverseComplement) {
  const Sequence s = Sequence::from_string("AACGT");
  EXPECT_EQ(s.reverse_complement().to_string(), "ACGTT");
  EXPECT_EQ(s.reverse_complement().reverse_complement().to_string(), "AACGT");
}

TEST(Sequence, EqualityIgnoresPaddingBits) {
  const Sequence a = Sequence::from_string("ACGTA");
  Sequence b = Sequence::from_string("ACGTAC");
  const Sequence c = b.subsequence(0, 5);
  EXPECT_TRUE(a == c);
  EXPECT_FALSE(a == b);
}

TEST(Fasta, RoundTrip) {
  const Sequence s = seq::GenomeModel{.length = 1000}.generate(3);
  std::ostringstream os;
  seq::write_fasta(os, "chr_test", s, 60);
  std::istringstream is(os.str());
  const auto records = seq::read_fasta(is);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "chr_test");
  EXPECT_TRUE(records[0].sequence == s);
  EXPECT_EQ(records[0].non_acgt, 0u);
}

TEST(Fasta, MultiRecordAndComments) {
  std::istringstream is(">one\nACGT\n;comment\nAC\n>two desc here\nGGGG\n");
  const auto records = seq::read_fasta(is);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence.to_string(), "ACGTAC");
  EXPECT_EQ(records[1].name, "two desc here");
  EXPECT_EQ(records[1].sequence.to_string(), "GGGG");
}

TEST(Fasta, CrlfLineEndingsParse) {
  // Windows-produced FASTA: every line ends \r\n. The \r must not reach the
  // sequence decoder or the record name.
  std::istringstream is(">r1\r\nACGT\r\nAC\r\n>r2\r\nGG\r\n");
  const auto records = seq::read_fasta(is);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "r1");
  EXPECT_EQ(records[0].sequence.to_string(), "ACGTAC");
  EXPECT_EQ(records[0].non_acgt, 0u);
  EXPECT_EQ(records[1].name, "r2");
  EXPECT_EQ(records[1].sequence.to_string(), "GG");
}

TEST(Fasta, EmptyRecordsAreExposed) {
  // Headers with no sequence lines still produce records — callers decide
  // the policy (gpumem_cli/gpumem_serve skip them with a warning).
  std::istringstream is(">a\n>b\nACGT\n>c\n");
  const auto records = seq::read_fasta(is);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_TRUE(records[0].sequence.empty());
  EXPECT_EQ(records[1].sequence.to_string(), "ACGT");
  EXPECT_EQ(records[2].name, "c");
  EXPECT_TRUE(records[2].sequence.empty());
}

TEST(Fasta, MultiRecordQueryFileRoundTrip) {
  // A multi-record query file (the serve layer's input shape) survives a
  // write/read cycle with every record intact and in order.
  const std::string path = ::testing::TempDir() + "/gm_fasta_multi.fa";
  std::vector<Sequence> seqs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    seqs.push_back(seq::GenomeModel{.length = 300 + 50 * i}.generate(30 + i));
  }
  {
    std::ofstream out(path);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      seq::write_fasta(out, std::string("q").append(std::to_string(i)),
                       seqs[i], 60);
    }
  }
  const auto records = seq::read_fasta_file(path);
  ASSERT_EQ(records.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(records[i].name, std::string("q").append(std::to_string(i)));
    EXPECT_TRUE(records[i].sequence == seqs[i]) << "record " << i;
  }
}

TEST(Fasta, NonAcgtPolicies) {
  {
    std::istringstream is(">x\nACNNGT\n");
    EXPECT_THROW(seq::read_fasta(is, seq::NonAcgtPolicy::kReject),
                 std::runtime_error);
  }
  {
    std::istringstream is(">x\nACNNGT\n");
    const auto rec = seq::read_fasta(is, seq::NonAcgtPolicy::kRandomize);
    EXPECT_EQ(rec[0].sequence.size(), 6u);
    EXPECT_EQ(rec[0].non_acgt, 2u);
  }
  {
    std::istringstream is(">x\nACNNGT\n");
    const auto rec = seq::read_fasta(is, seq::NonAcgtPolicy::kSkip);
    EXPECT_EQ(rec[0].sequence.to_string(), "ACGT");
  }
}

TEST(Fasta, RandomizePolicyIsDeterministic) {
  auto parse = [] {
    std::istringstream is(">x\nNNNNNNNNNN\n");
    return seq::read_fasta(is, seq::NonAcgtPolicy::kRandomize)[0]
        .sequence.to_string();
  };
  EXPECT_EQ(parse(), parse());
}

TEST(Fasta, DataBeforeHeaderThrows) {
  std::istringstream is("ACGT\n");
  EXPECT_THROW(seq::read_fasta(is), std::runtime_error);
}

TEST(Synthetic, DeterministicInSeed) {
  const seq::GenomeModel model{.length = 5000};
  EXPECT_TRUE(model.generate(42) == model.generate(42));
  EXPECT_FALSE(model.generate(42) == model.generate(43));
}

TEST(Synthetic, MutatorPreservesSimilarity) {
  const Sequence base = seq::GenomeModel{.length = 20000}.generate(1);
  seq::MutationModel mut;
  mut.snp_rate = 0.01;
  mut.indel_rate = 0.0;
  mut.inversions = mut.translocations = mut.duplications = 0;
  const Sequence derived = mut.apply(base, 2);
  ASSERT_EQ(derived.size(), base.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    diffs += base.base(i) != derived.base(i);
  }
  // ~1% substitutions (2/3 of trials actually change the base? No — the
  // mutator always picks a different base). Allow generous slack.
  EXPECT_GT(diffs, base.size() / 300);
  EXPECT_LT(diffs, base.size() / 30);
}

TEST(Synthetic, MutatorHitsTargetLength) {
  const Sequence base = seq::GenomeModel{.length = 4096}.generate(5);
  seq::MutationModel mut;
  mut.target_length = 2000;
  EXPECT_EQ(mut.apply(base, 1).size(), 2000u);
  mut.target_length = 9000;
  EXPECT_EQ(mut.apply(base, 1).size(), 9000u);
}

TEST(Synthetic, DatasetPresetsExist) {
  const auto names = seq::dataset_presets();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& n : names) {
    const seq::DatasetPair pair = seq::make_dataset(n, 42, 64);
    EXPECT_GT(pair.reference.size(), 0u) << n;
    EXPECT_GT(pair.query.size(), 0u) << n;
  }
  EXPECT_THROW(seq::make_dataset("nope", 1, 1), std::invalid_argument);
}

TEST(Synthetic, RelatedPairsShareLongMatches) {
  const seq::DatasetPair pair = seq::make_dataset("chrXII_s/chrI_s", 7, 8);
  // High-identity pair: some exact 64-mer of the reference should appear in
  // the query (probabilistic but essentially certain at 0.2% divergence).
  bool found = false;
  for (std::size_t i = 0; i + 64 < pair.reference.size() && !found; i += 997) {
    for (std::size_t j = 0; j + 64 < pair.query.size() && !found; ++j) {
      if (pair.reference.common_prefix(i, pair.query, j, 64) == 64) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fasta, FileRoundTrip) {
  const Sequence s = seq::GenomeModel{.length = 700}.generate(21);
  const std::string path = ::testing::TempDir() + "/gm_fasta_roundtrip.fa";
  seq::write_fasta_file(path, "rec1", s, 50);
  const auto records = seq::read_fasta_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "rec1");
  EXPECT_TRUE(records[0].sequence == s);
  EXPECT_THROW(seq::read_fasta_file(path + ".does-not-exist"),
               std::runtime_error);
}

TEST(Fasta, ReferenceAndQueryLoadersNameTheFileAndCause) {
  const std::string dir = ::testing::TempDir();
  const auto write = [&dir](const char* name, const char* text) {
    std::ofstream(dir + "/" + name) << text;
    return dir + "/" + name;
  };
  const std::string two = write("gm_loader_two.fa", ">r1\nACGT\n>r2\nGG\n");
  const seq::FastaRecord ref = seq::read_reference_file(two);
  EXPECT_EQ(ref.name, "r1");
  EXPECT_EQ(ref.sequence.to_string(), "ACGT");

  const std::string holey =
      write("gm_loader_holey.fa", ">e1\n>q1\nACGT\n>e2\n>q2\nTT\n");
  const auto queries = seq::read_query_file(holey);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].name, "q1");
  EXPECT_EQ(queries[1].name, "q2");

  const auto message = [](auto&& load) {
    try {
      load();
    } catch (const util::InputError& e) {
      return std::string(e.what());
    }
    return std::string("no InputError");
  };
  const std::string empty_first = write("gm_loader_empty.fa", ">e\n>r\nA\n");
  EXPECT_EQ(message([&] { seq::read_reference_file(empty_first); }),
            "reference FASTA " + empty_first + ": first record 'e' is empty");
  const std::string none = write("gm_loader_none.fa", "");
  EXPECT_EQ(message([&] { seq::read_reference_file(none); }),
            "reference FASTA " + none + " holds no record");
  const std::string blanks = write("gm_loader_blanks.fa", ">e1\n>e2\n");
  EXPECT_EQ(message([&] { seq::read_query_file(blanks); }),
            "query FASTA " + blanks + " holds no non-empty record");
  // A file that will not open is no InputError: the binaries exit 1 on it.
  try {
    seq::read_query_file(dir + "/gm_loader_missing.fa");
    FAIL() << "a missing file loaded";
  } catch (const util::InputError& e) {
    FAIL() << "a missing file is an InputError: " << e.what();
  } catch (const std::runtime_error&) {
  }
}

TEST(Sequence, WindowPastEndIsZeroFilled) {
  const Sequence s = Sequence::from_string("TTTT");  // code 3 everywhere
  const std::uint64_t w = s.window64(2);
  EXPECT_EQ(w & 0xF, 0xFull);        // two T's
  EXPECT_EQ(w >> 4, 0ull);           // zero-fill beyond the end
  EXPECT_EQ(s.window64(100), 0ull);  // fully out of range
}

TEST(Sequence, FromCodesRejectsBadCode) {
  EXPECT_THROW(Sequence::from_codes({0, 1, 4}), std::invalid_argument);
}

TEST(Sequence, AppendConcatenates) {
  Sequence a = Sequence::from_string("ACGT");
  const Sequence b = Sequence::from_string("GGTT");
  a.append(b, 1, 2);  // "GT"
  EXPECT_EQ(a.to_string(), "ACGTGT");
}

TEST(Sequence, CommonSuffixStopsAtSequenceStart) {
  const Sequence a = Sequence::from_string("ACG");
  const Sequence b = Sequence::from_string("TACG");
  // Compare backwards from the ends: 3 common, then a runs out.
  EXPECT_EQ(a.common_suffix(2, b, 3, 100), 3u);
}

// --- invalid-base validity mask --------------------------------------------

TEST(Sequence, LenientMasksNonAcgt) {
  const Sequence s = Sequence::from_string_lenient("ACgNtX");
  EXPECT_EQ(s.size(), 6u);
  EXPECT_TRUE(s.has_invalid());
  EXPECT_EQ(s.invalid_count(), 2u);  // 'N' and 'X'
  EXPECT_TRUE(s.valid(0));
  EXPECT_TRUE(s.valid(2));   // lowercase g is a valid base
  EXPECT_FALSE(s.valid(3));  // N
  EXPECT_TRUE(s.valid(4));
  EXPECT_FALSE(s.valid(5));  // X
  EXPECT_EQ(s.to_string(), "ACGNTN");  // invalid renders as N, case folds
}

TEST(Sequence, NextInvalidScansAcrossWords) {
  // Invalid bases at 0, 63, 64, and 130 — word boundaries of the 64-bit
  // validity mask.
  std::string text(200, 'A');
  for (const std::size_t pos : {std::size_t{0}, std::size_t{63},
                                std::size_t{64}, std::size_t{130}}) {
    text[pos] = 'N';
  }
  const Sequence s = Sequence::from_string_lenient(text);
  EXPECT_EQ(s.next_invalid(0, 200), 0u);
  EXPECT_EQ(s.next_invalid(1, 200), 63u);
  EXPECT_EQ(s.next_invalid(64, 200), 64u);
  EXPECT_EQ(s.next_invalid(65, 200), 130u);
  EXPECT_EQ(s.next_invalid(131, 200), 200u);  // none left: returns `to`
  EXPECT_EQ(s.next_invalid(1, 63), 63u);      // exclusive bound respected
  const Sequence clean = Sequence::from_string("ACGT");
  EXPECT_EQ(clean.next_invalid(0, 4), 4u);
}

TEST(Sequence, SubsequenceAndAppendPropagateMask) {
  const Sequence s = Sequence::from_string_lenient("ACNNGT");
  const Sequence sub = s.subsequence(1, 4);  // "CNNG"
  EXPECT_EQ(sub.invalid_count(), 2u);
  EXPECT_EQ(sub.to_string(), "CNNG");
  Sequence t = Sequence::from_string("TT");
  t.append(s, 2, 3);  // "NNG"
  EXPECT_EQ(t.to_string(), "TTNNG");
  EXPECT_EQ(t.invalid_count(), 2u);
}

TEST(Sequence, ReverseComplementPreservesMask) {
  const Sequence s = Sequence::from_string_lenient("ACGNT");
  const Sequence rc = s.reverse_complement();
  EXPECT_EQ(rc.to_string(), "ANCGT");
  EXPECT_EQ(rc.invalid_count(), 1u);
  EXPECT_FALSE(rc.valid(1));
}

TEST(Sequence, EqualityDistinguishesMaskedPositions) {
  // 'N' is stored with placeholder code 0 ('A'): without the mask these two
  // would compare equal word-for-word.
  const Sequence a = Sequence::from_string_lenient("AAGT");
  const Sequence b = Sequence::from_string_lenient("ANGT");
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(b == Sequence::from_string_lenient("ANGT"));
}

TEST(Fasta, MaskIsTheDefaultPolicy) {
  std::istringstream is(">x\nACNNGT\n");
  const auto rec = seq::read_fasta(is);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0].sequence.size(), 6u);
  EXPECT_EQ(rec[0].non_acgt, 2u);
  EXPECT_EQ(rec[0].sequence.invalid_count(), 2u);
  EXPECT_EQ(rec[0].sequence.to_string(), "ACNNGT");
}

// --- packed codec view + word-parallel LCE ---------------------------------

TEST(PackedSeq, RoundTripViewMatchesSequence) {
  util::Xoshiro256 rng(21);
  std::string text;
  for (int i = 0; i < 300; ++i) {
    // ~5% N so the validity mask is exercised through the view too.
    text.push_back(rng.bounded(20) == 0 ? 'N'
                                        : seq::decode_base(rng.bounded(4) & 3));
  }
  const Sequence s = Sequence::from_string_lenient(text);
  const seq::PackedSeq p(s);
  ASSERT_EQ(p.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(p.base(i), s.base(i));
    EXPECT_EQ(p.valid(i), s.valid(i)) << "mask diverged at " << i;
    EXPECT_EQ(p.window(i), s.window64(i));
  }
}

TEST(PackedSeq, BackwardWindowHoldsEndingBases) {
  util::Xoshiro256 rng(22);
  std::vector<std::uint8_t> codes(120);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.bounded(4));
  const Sequence s = Sequence::from_codes(codes);
  const seq::PackedSeq p(s);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint64_t w = p.window_back(i);
    // Base i sits in the top 2 bits; base i-k at the k-th 2-bit slot below.
    const std::size_t depth = std::min<std::size_t>(i + 1, 32);
    for (std::size_t k = 0; k < depth; ++k) {
      EXPECT_EQ((w >> (62 - 2 * k)) & 3, codes[i - k])
          << "i=" << i << " k=" << k;
    }
    if (i >= 31) {
      EXPECT_EQ(w, s.window64(i - 31));
    }
  }
}

TEST(PackedSeq, WordAndScalarLceAgreeOnFuzzedInputs) {
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    // Mutated copies share long runs, so extensions cross word boundaries.
    std::string a_text;
    const std::size_t n = 80 + rng.bounded(200);
    for (std::size_t i = 0; i < n; ++i) {
      a_text.push_back(rng.bounded(25) == 0
                           ? 'N'
                           : seq::decode_base(rng.bounded(4) & 3));
    }
    std::string b_text = a_text;
    for (int m = 0; m < 4; ++m) {
      b_text[rng.bounded(b_text.size())] =
          seq::decode_base(rng.bounded(4) & 3);
    }
    const Sequence a = Sequence::from_string_lenient(a_text);
    const Sequence b = Sequence::from_string_lenient(b_text);
    for (int probe = 0; probe < 50; ++probe) {
      const std::size_t i = rng.bounded(a.size());
      const std::size_t j = rng.bounded(b.size());
      const std::size_t cap = rng.bounded(2 * n);
      EXPECT_EQ(seq::lce_forward_word(a, i, b, j, cap),
                seq::lce_forward_scalar(a, i, b, j, cap))
          << "fwd i=" << i << " j=" << j << " cap=" << cap;
      EXPECT_EQ(seq::lce_backward_word(a, i, b, j, cap),
                seq::lce_backward_scalar(a, i, b, j, cap))
          << "bwd i=" << i << " j=" << j << " cap=" << cap;
    }
  }
}

TEST(PackedSeq, LceModeSwitchesImplementationNotResult) {
  const auto pair = seq::make_dataset("chrXII_s/chrI_s", 5, 64);
  const seq::PackedSeq r(pair.reference), q(pair.query);
  ASSERT_EQ(seq::lce_mode(), seq::LceMode::kWord);  // project default
  const std::size_t fwd = r.lce_forward(10, q, 10, 4096);
  const std::size_t bwd =
      r.lce_backward(r.size() - 1, q, q.size() - 1, 4096);
  seq::set_lce_mode(seq::LceMode::kScalar);
  EXPECT_EQ(r.lce_forward(10, q, 10, 4096), fwd);
  EXPECT_EQ(r.lce_backward(r.size() - 1, q, q.size() - 1, 4096), bwd);
  // Sequence's own entry points dispatch through the same flag.
  EXPECT_EQ(pair.reference.common_prefix(10, pair.query, 10, 4096), fwd);
  seq::set_lce_mode(seq::LceMode::kWord);
}

TEST(PackedSeq, LceComparesRawCodesExactlyLikeScalar) {
  // Invalid bases pack as code 0 (== 'A'), so raw-code LCE runs straight
  // through them in BOTH implementations; the project-wide mask policy is
  // enforced later by clip_invalid_bases, never inside LCE.
  const Sequence a = Sequence::from_string_lenient("ACGNNGCA");
  const Sequence b = Sequence::from_string_lenient("ACGAAGCA");
  EXPECT_EQ(seq::lce_forward_word(a, 0, b, 0, 8), 8u);
  EXPECT_EQ(seq::lce_forward_scalar(a, 0, b, 0, 8), 8u);
  EXPECT_EQ(seq::lce_backward_word(a, 7, b, 7, 8), 8u);
  EXPECT_EQ(seq::lce_backward_scalar(a, 7, b, 7, 8), 8u);
}

TEST(PackedSeq, BackwardLcePinpointsMismatchAcrossWords) {
  // 200 equal bases, one planted mismatch; the backward extension from the
  // far end must stop exactly there, across several 32-base word seams.
  for (const std::size_t mismatch_at : {std::size_t{0}, std::size_t{31},
                                        std::size_t{32}, std::size_t{64},
                                        std::size_t{150}}) {
    util::Xoshiro256 rng(31 + mismatch_at);
    std::vector<std::uint8_t> codes(200);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.bounded(4));
    const Sequence a = Sequence::from_codes(codes);
    codes[mismatch_at] ^= 1;
    const Sequence b = Sequence::from_codes(codes);
    const std::size_t expect = 199 - mismatch_at;
    EXPECT_EQ(seq::lce_backward_word(a, 199, b, 199, 200), expect);
    EXPECT_EQ(a.common_suffix(199, b, 199, 200), expect);
  }
}

// --- lce_backward boundary audit (both LceMode implementations) ------------
// The backward window for i < 31 zero-fills the missing history below base 0
// (packed_detail::window64_back); those synthetic zero bits may "match" the
// other sequence's real history, so the result must be clipped at i + 1.
// These tests pin the origin-adjacent, zero-length, and word-seam/mask
// corners under BOTH implementations.

class LceBothModes : public ::testing::TestWithParam<seq::LceMode> {
 protected:
  void SetUp() override { seq::set_lce_mode(GetParam()); }
  void TearDown() override { seq::set_lce_mode(seq::LceMode::kWord); }
};

TEST_P(LceBothModes, BackwardClipsAtOriginAdjacentWindows) {
  // a and b share their first 80 bases; b carries 40 bases of extra history
  // in front. A backward probe from a[i] with small i must stop at i + 1
  // even though b's earlier history would keep "matching" the zero fill.
  util::Xoshiro256 rng(77);
  std::vector<std::uint8_t> shared(80);
  for (auto& c : shared) c = static_cast<std::uint8_t>(rng.bounded(4));
  // prefix code 0 ('A') equals the zero fill bit-for-bit — the spurious
  // match the i + 1 clip exists for; code 3 ('T') mismatches it instead.
  for (const std::uint8_t prefix_code : {std::uint8_t{0}, std::uint8_t{3}}) {
    std::vector<std::uint8_t> prefixed(40 + shared.size(), prefix_code);
    std::copy(shared.begin(), shared.end(), prefixed.begin() + 40);
    const Sequence a = Sequence::from_codes(shared);
    const Sequence b = Sequence::from_codes(prefixed);
    for (const std::size_t i :
         {std::size_t{0}, std::size_t{1}, std::size_t{30}, std::size_t{31},
          std::size_t{32}, std::size_t{63}}) {
      // shared[i] may equal prefix_code, letting the real match run past the
      // zero-fill seam on b's side — but never past a's origin.
      EXPECT_EQ(seq::lce_backward(a, i, b, 40 + i, 1000), i + 1)
          << "i=" << i << " prefix=" << int{prefix_code};
      EXPECT_EQ(a.common_suffix(i, b, 40 + i, 1000), i + 1) << "i=" << i;
      // Symmetric: the short-history side may be the second operand.
      EXPECT_EQ(seq::lce_backward(b, 40 + i, a, i, 1000), i + 1)
          << "i=" << i << " prefix=" << int{prefix_code};
    }
  }
}

TEST_P(LceBothModes, ZeroLengthWindowsReturnZero) {
  const Sequence a = Sequence::from_string("ACGTACGTACGT");
  const Sequence b = a;
  EXPECT_EQ(seq::lce_backward(a, 5, b, 5, 0), 0u);
  EXPECT_EQ(seq::lce_forward(a, 5, b, 5, 0), 0u);
  // Forward probes at/past the end have an empty window, not UB.
  EXPECT_EQ(seq::lce_forward(a, a.size(), b, 0, 100), 0u);
  EXPECT_EQ(seq::lce_forward(a, 0, b, b.size(), 100), 0u);
  // Origin probes cap at exactly one base.
  EXPECT_EQ(seq::lce_backward(a, 0, b, 0, 100), 1u);
  EXPECT_EQ(seq::lce_backward(a, 0, b, 4, 100), 1u);  // both positions 'A'
}

TEST_P(LceBothModes, BackwardRunsThroughMaskAtWordSeams) {
  // Invalid bases pack as code 0 ('A'); LCE compares raw codes only. Plant
  // an N exactly on 32-base word seams: the backward scan must treat it as
  // 'A' (match) in both implementations — the mask policy is applied by
  // clip_invalid_bases later, never inside LCE.
  for (const std::size_t n_at : {std::size_t{31}, std::size_t{32},
                                 std::size_t{63}, std::size_t{64}}) {
    std::string text(96, 'A');
    for (std::size_t i = 0; i < text.size(); i += 3) text[i] = 'G';
    std::string masked = text;
    masked[n_at] = 'N';
    const Sequence pure = Sequence::from_string(text);
    const Sequence holed = Sequence::from_string_lenient(masked);
    const std::size_t expect = (text[n_at] == 'A')
                                   ? 96u          // N packs as the same code
                                   : 95u - n_at;  // stops where codes differ
    EXPECT_EQ(seq::lce_backward(pure, 95, holed, 95, 96), expect)
        << "n_at=" << n_at;
    EXPECT_EQ(seq::lce_backward(holed, 95, pure, 95, 96), expect)
        << "n_at=" << n_at;
  }
}

INSTANTIATE_TEST_SUITE_P(WordAndScalar, LceBothModes,
                         ::testing::Values(seq::LceMode::kWord,
                                           seq::LceMode::kScalar));

}  // namespace
}  // namespace gm
