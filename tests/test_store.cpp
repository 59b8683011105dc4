// store/ tests: the persistent artifact must round-trip every index
// structure bit-identically, and every corruption class — truncation, a
// flipped byte in any section, bad magic, future version, opposite
// endianness, stale geometry — must be a deterministic StoreError naming
// the file and the failing section, never UB. Registry tests pin down the
// multi-tenant lifecycle: lazy activation, LRU eviction of unpinned
// tenants, pinned exemption, and "a corrupt tenant never evicts anyone".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/device_pool.h"
#include "core/pipeline.h"
#include "index/fm_index.h"
#include "index/lcp.h"
#include "index/sparse_suffix_array.h"
#include "index/suffix_array.h"
#include "mem/copmem.h"
#include "mem/naive.h"
#include "seq/sequence.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "simt/device.h"
#include "store/artifact.h"
#include "store/loaded_index.h"
#include "util/checksum.h"

namespace gm {
namespace {

using core::Config;
using core::Engine;
using store::ArtifactHeader;
using store::BuildOptions;
using store::LoadedIndex;
using store::MappedArtifact;
using store::SectionEntry;
using store::SectionId;
using store::StoreError;

Config small_config() {
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;  // tile_len 224 -> several tile rows per reference
  return cfg;
}

seq::Sequence test_reference(std::size_t length, std::uint64_t seed) {
  return seq::GenomeModel{.length = length}.generate(seed);
}

seq::Sequence derived_query(const seq::Sequence& ref, std::uint64_t seed) {
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  mut.indel_rate = 0.003;
  return mut.apply(ref, seed);
}

/// A reference with masked (non-ACGT) bases so the kSeqMask section exists.
seq::Sequence masked_reference() {
  std::string text = test_reference(1500, 7).to_string();
  text[100] = 'N';
  text[101] = 'N';
  text[900] = 'n';
  return seq::Sequence::from_string_lenient(text);
}

LoadedIndex load_image(std::vector<std::uint8_t> image) {
  return LoadedIndex(
      MappedArtifact::from_buffer(std::move(image), "<test>"));
}

// --- round trip ------------------------------------------------------------

TEST(StoreRoundTrip, NativeExtractionIsBitIdentical) {
  const auto ref = masked_reference();
  const auto query = derived_query(ref, 11);
  Config cfg = small_config();
  cfg.backend = core::Backend::kNative;
  const Engine engine(cfg);

  const auto fresh = engine.run(ref, query);
  ASSERT_FALSE(fresh.mems.empty());

  const LoadedIndex loaded = load_image(store::build_artifact(ref, cfg));
  const auto replay = engine.run_native_prebuilt(loaded.reference(), query,
                                                 loaded.native_index());
  EXPECT_EQ(fresh.mems, replay.mems);
}

TEST(StoreRoundTrip, SimtCachedExtractionIsBitIdentical) {
  const auto ref = test_reference(3000, 21);
  const auto query = derived_query(ref, 22);
  const Config cfg = small_config();
  const Engine engine(cfg);

  const auto fresh = engine.run(ref, query);
  ASSERT_FALSE(fresh.mems.empty());

  const auto loaded = std::make_shared<const LoadedIndex>(
      load_image(store::build_artifact(ref, cfg)));
  core::DevicePool pool(cfg, 1, ref);
  serve::DeviceRowIndexCache cache(pool.device(0), cfg, /*ref_id=*/1);
  cache.back_with_artifact(loaded);
  pool.attach(0, &cache);
  const auto replay = pool.run(query);
  EXPECT_EQ(fresh.mems, replay.mems);
  EXPECT_GT(cache.artifact_loads(), 0u);
}

TEST(StoreRoundTrip, FileOpenIsMappedAndHeaderFaithful) {
  const auto ref = masked_reference();
  const Config cfg = small_config();
  BuildOptions opt;
  opt.ref_name = "tenant-a";
  const auto image = store::build_artifact(ref, cfg, opt);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "roundtrip.gmidx")
          .string();
  store::write_artifact_file(path, image);

  const MappedArtifact art = MappedArtifact::open_file(path);
  EXPECT_TRUE(art.is_mapped());
  EXPECT_EQ(art.file_bytes(), image.size());
  const ArtifactHeader& h = art.header();
  EXPECT_EQ(h.name(), "tenant-a");
  EXPECT_EQ(h.ref_bases, ref.size());
  EXPECT_EQ(h.ref_invalid, ref.invalid_count());
  EXPECT_EQ(h.seed_len, cfg.seed_len);
  EXPECT_EQ(h.min_length, cfg.min_length);
  EXPECT_EQ(h.tau, cfg.threads);
  EXPECT_EQ(h.tile_blocks(), cfg.tile_blocks);
  EXPECT_TRUE(art.has_section(SectionId::kSeqPacked));
  EXPECT_TRUE(art.has_section(SectionId::kSeqMask));
  EXPECT_FALSE(art.has_section(SectionId::kSuffixArray));

  const LoadedIndex loaded(art);
  EXPECT_EQ(loaded.reference().to_string(), ref.to_string());
}

TEST(StoreRoundTrip, OptionalSectionsMatchInProcessBuilders) {
  const auto ref = test_reference(1200, 31);
  const Config cfg = small_config();
  BuildOptions opt;
  opt.with_suffix_array = true;
  opt.sparseness = 4;
  opt.fm_sa_sample = 16;
  const LoadedIndex loaded = load_image(store::build_artifact(ref, cfg, opt));

  const auto sa = index::build_suffix_array(ref);
  ASSERT_EQ(loaded.suffix_array().size(), sa.size());
  EXPECT_TRUE(std::equal(sa.begin(), sa.end(),
                         loaded.suffix_array().begin()));

  const auto lcp = index::build_lcp_kasai(ref, sa);
  ASSERT_EQ(loaded.lcp().size(), lcp.size());
  EXPECT_TRUE(std::equal(lcp.begin(), lcp.end(), loaded.lcp().begin()));

  const index::SparseSuffixArray ssa(ref, opt.sparseness);
  ASSERT_EQ(loaded.sparse_sa().size(), ssa.positions().size());
  EXPECT_TRUE(std::equal(ssa.positions().begin(), ssa.positions().end(),
                         loaded.sparse_sa().begin()));

  std::vector<std::uint8_t> fresh_fm, loaded_fm;
  index::FmIndex(ref, opt.fm_sa_sample).serialize(fresh_fm);
  loaded.fm_index().serialize(loaded_fm);
  EXPECT_EQ(fresh_fm, loaded_fm);
}

TEST(StoreRoundTrip, MissingOptionalSectionThrows) {
  const auto ref = test_reference(600, 41);
  const LoadedIndex loaded =
      load_image(store::build_artifact(ref, small_config()));
  EXPECT_THROW(loaded.suffix_array(), StoreError);
  EXPECT_THROW(loaded.fm_index(), StoreError);
  EXPECT_THROW(loaded.copmem_index(), StoreError);
}

TEST(StoreRoundTrip, CopmemIndexSectionAdoptsBitIdentically) {
  // Persist the double-sampled copMEM index (kCopmemIndex) and adopt it on
  // load: the adopted finder must produce the exact MEM set of a fresh
  // build — and of the naive ground truth.
  const auto ref = masked_reference();
  const auto query = derived_query(ref, 55);
  const Config cfg = small_config();  // L=12, K=6

  mem::FinderOptions fopt;
  fopt.min_length = cfg.min_length;
  mem::CopMemFinder fresh;
  fresh.set_seed_len(cfg.seed_len);
  fresh.build_index(ref, fopt);
  const auto expect = fresh.find(query);
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(expect, mem::find_mems_naive(ref, query, cfg.min_length));

  BuildOptions opt;
  opt.copmem_step = fresh.params().k1;
  const LoadedIndex loaded = load_image(store::build_artifact(ref, cfg, opt));
  ASSERT_TRUE(loaded.artifact().has_section(SectionId::kCopmemIndex));

  mem::CopMemFinder adopted;
  adopted.adopt_index(loaded.reference(), fopt, loaded.copmem_index());
  EXPECT_EQ(adopted.params().seed_len, fresh.params().seed_len);
  EXPECT_EQ(adopted.params().k1, fresh.params().k1);
  EXPECT_EQ(adopted.params().k2, fresh.params().k2);
  EXPECT_EQ(adopted.find(query), expect);
}

TEST(StoreRoundTrip, CopmemAdoptRejectsOversampledIndex) {
  // An adopted index whose step exceeds L - K + 1 can never guarantee MEM
  // coverage; adopt_index must refuse it deterministically.
  const auto ref = test_reference(800, 61);
  const Config cfg = small_config();
  BuildOptions opt;
  opt.copmem_step = 2;
  const LoadedIndex loaded = load_image(store::build_artifact(ref, cfg, opt));
  mem::FinderOptions fopt;
  fopt.min_length = 7;  // L - K + 1 = 2 < adopted k1... still legal (2 <= 2)
  mem::CopMemFinder ok;
  EXPECT_NO_THROW(ok.adopt_index(loaded.reference(), fopt,
                                 loaded.copmem_index()));
  fopt.min_length = 6;  // L - K + 1 = 1 < step 2: coverage impossible
  mem::CopMemFinder bad;
  EXPECT_THROW(bad.adopt_index(loaded.reference(), fopt,
                               loaded.copmem_index()),
               std::invalid_argument);
}

// --- corruption matrix -----------------------------------------------------

/// A valid image to mutate, plus its parsed section table.
struct Specimen {
  std::vector<std::uint8_t> image;
  ArtifactHeader header;
  std::vector<SectionEntry> table;
};

Specimen make_specimen() {
  Specimen s;
  BuildOptions opt;
  opt.with_suffix_array = true;
  opt.sparseness = 4;
  opt.fm_sa_sample = 16;
  s.image = store::build_artifact(masked_reference(), small_config(), opt);
  std::memcpy(&s.header, s.image.data(), sizeof s.header);
  s.table.resize(s.header.section_count);
  std::memcpy(s.table.data(), s.image.data() + sizeof s.header,
              s.table.size() * sizeof(SectionEntry));
  return s;
}

/// The error message for the mutated image must contain `expect`.
void expect_rejected(std::vector<std::uint8_t> image,
                     const std::string& expect) {
  try {
    MappedArtifact::from_buffer(std::move(image), "<test>");
    FAIL() << "corrupted artifact was accepted (wanted error containing \""
           << expect << "\")";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(StoreCorruption, FlippedByteInEverySectionNamesTheSection) {
  const Specimen s = make_specimen();
  ASSERT_EQ(s.table.size(), 9u);  // all sections present (masked + extras)
  for (const SectionEntry& e : s.table) {
    ASSERT_GT(e.bytes, 0u);
    const std::string name =
        store::section_name(static_cast<SectionId>(e.id));
    // Mid-payload and last-byte flips both land on the section's checksum.
    for (const std::uint64_t at : {e.bytes / 2, e.bytes - 1}) {
      auto image = s.image;
      image[e.offset + at] ^= 0x01;
      expect_rejected(std::move(image), "section " + name);
    }
    auto image = s.image;
    image[e.offset + e.bytes / 2] ^= 0x80;
    expect_rejected(std::move(image), "checksum mismatch");
  }
}

TEST(StoreCorruption, TruncationIsRejectedAtEveryBoundary) {
  const Specimen s = make_specimen();
  // Shorter than the fixed header.
  auto tiny = s.image;
  tiny.resize(sizeof(ArtifactHeader) - 1);
  expect_rejected(std::move(tiny), "");
  // Mid-payload truncation: recorded total size disagrees with the bytes.
  auto cut = s.image;
  cut.resize(cut.size() - 1);
  expect_rejected(std::move(cut), "truncat");
  // Trailing garbage is equally a size mismatch, not silently ignored.
  auto grown = s.image;
  grown.push_back(0);
  expect_rejected(std::move(grown), "");
}

TEST(StoreCorruption, BadMagicRejected) {
  auto image = make_specimen().image;
  image[0] = 'X';
  expect_rejected(std::move(image), "magic");
}

TEST(StoreCorruption, FutureVersionRejected) {
  auto image = make_specimen().image;
  const std::uint32_t future = store::kFormatVersion + 1;
  std::memcpy(image.data() + offsetof(ArtifactHeader, version), &future,
              sizeof future);
  expect_rejected(std::move(image), "version");
}

TEST(StoreCorruption, VersionOneRejected) {
  // Version 1 headers had no τ; they must be rebuilt, not guessed at.
  auto image = make_specimen().image;
  const std::uint32_t v1 = 1;
  std::memcpy(image.data() + offsetof(ArtifactHeader, version), &v1,
              sizeof v1);
  expect_rejected(std::move(image), "format version 1");
}

TEST(StoreCorruption, HeaderTileBlocksIsZeroWhenGeometryDoesNotDivide) {
  ArtifactHeader h;
  h.tau = 16;
  h.step = 7;
  h.tile_len = 16 * 7 * 2;
  EXPECT_EQ(h.tile_blocks(), 2u);
  h.tile_len += 1;
  EXPECT_EQ(h.tile_blocks(), 0u);
  h.tau = 0;
  EXPECT_EQ(h.tile_blocks(), 0u);
}

TEST(StoreCorruption, OppositeEndiannessRejected) {
  auto image = make_specimen().image;
  const std::uint32_t swapped = 0x04030201u;  // kEndianTag byte-reversed
  std::memcpy(image.data() + offsetof(ArtifactHeader, endian_tag), &swapped,
              sizeof swapped);
  expect_rejected(std::move(image), "endian");
}

TEST(StoreCorruption, HeaderTamperingFailsTheHeaderChecksum) {
  auto image = make_specimen().image;
  image[offsetof(ArtifactHeader, ref_name)] ^= 0x01;
  expect_rejected(std::move(image), "header checksum");
}

TEST(StoreCorruption, SectionTableTamperingFailsTheHeaderChecksum) {
  auto image = make_specimen().image;
  image[sizeof(ArtifactHeader)] ^= 0x01;  // first byte of the section table
  expect_rejected(std::move(image), "header checksum");
}

TEST(StoreCorruption, StaleGeometryNamesEveryMismatchedField) {
  const auto ref = test_reference(1000, 51);
  const LoadedIndex loaded =
      load_image(store::build_artifact(ref, small_config()));

  EXPECT_TRUE(loaded.geometry_matches(small_config()));

  Config stale = small_config();
  stale.seed_len = 8;
  stale.min_length = 16;
  EXPECT_FALSE(loaded.geometry_matches(stale));
  try {
    loaded.throw_if_geometry_mismatch(stale);
    FAIL() << "stale geometry was accepted";
  } catch (const StoreError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stale geometry"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seed_len"), std::string::npos) << msg;
    EXPECT_NE(msg.find("min_length"), std::string::npos) << msg;
    EXPECT_NE(msg.find("index-build"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--tau/--tile-blocks"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile_len = tile_blocks·τ·Δs"), std::string::npos)
        << msg;
  }
}

TEST(StoreCorruption, OpenFileErrorsNameThePath) {
  const std::string missing =
      (std::filesystem::path(::testing::TempDir()) / "no-such.gmidx")
          .string();
  try {
    MappedArtifact::open_file(missing);
    FAIL() << "opening a missing file succeeded";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
}

// --- checksum primitive ----------------------------------------------------

TEST(StoreChecksum, SectionChecksumsMatchStandaloneStripedFnv) {
  const Specimen s = make_specimen();
  for (const SectionEntry& e : s.table) {
    EXPECT_EQ(e.checksum,
              util::fnv1a64_striped(s.image.data() + e.offset, e.bytes))
        << store::section_name(static_cast<SectionId>(e.id));
  }
}

// --- registry --------------------------------------------------------------

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("registry-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()
                    ->name()));
    std::filesystem::create_directories(dir_);
    cfg_ = small_config();
    for (const char* name : {"alpha", "beta", "gamma"}) {
      refs_[name] =
          test_reference(2000, util::fnv1a64(std::string_view(name)));
      store::write_artifact_file((dir_ / (std::string(name) + ".gmidx"))
                                     .string(),
                                 store::build_artifact(refs_[name], cfg_));
    }
  }

  serve::ServiceConfig base() const {
    serve::ServiceConfig scfg;
    scfg.engine = cfg_;
    return scfg;
  }

  std::filesystem::path dir_;
  Config cfg_;
  std::map<std::string, seq::Sequence> refs_;
};

TEST_F(RegistryTest, ScansLazilyAndCountsHits) {
  serve::ReferenceRegistry reg(dir_.string(), base());
  EXPECT_EQ(reg.tenants(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  auto st = reg.stats();
  EXPECT_EQ(st.known, 3u);
  EXPECT_EQ(st.resident, 0u);  // nothing loads until acquire
  EXPECT_EQ(st.loads, 0u);

  auto a = reg.acquire("alpha");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "alpha");
  auto again = reg.acquire("alpha");
  EXPECT_EQ(a.get(), again.get());
  st = reg.stats();
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.resident, 1u);

  EXPECT_THROW(reg.acquire("delta"), StoreError);
  EXPECT_THROW(reg.artifact_path("delta"), StoreError);
}

TEST_F(RegistryTest, TenantOfRoutesByKnownNamePrefix) {
  const serve::ReferenceRegistry reg(dir_.string(), base());
  EXPECT_EQ(reg.tenant_of("beta/read7", "alpha"), "beta");
  EXPECT_EQ(reg.tenant_of("beta/x/y", ""), "beta");
  EXPECT_EQ(reg.tenant_of("delta/read7", "alpha"), "alpha");  // unknown
  EXPECT_EQ(reg.tenant_of("beta", "alpha"), "alpha");  // no prefix
  EXPECT_EQ(reg.tenant_of("/read7", ""), "");
  EXPECT_EQ(reg.stats().loads, 0u);  // routing activates nothing
}

TEST_F(RegistryTest, ServesBitIdenticalMemsPerTenant) {
  serve::ReferenceRegistry reg(dir_.string(), base());
  for (const auto& [name, ref] : refs_) {
    const auto query = derived_query(ref, 77);
    const auto expect = Engine(cfg_).run(ref, query);
    ASSERT_FALSE(expect.mems.empty()) << name;

    auto tenant = reg.acquire(name);
    auto fut = tenant->service().submit({.id = name, .query = query});
    const auto result = fut.get();
    ASSERT_EQ(result.status, serve::QueryStatus::kOk) << result.error;
    EXPECT_EQ(result.mems, expect.mems) << name;
  }
}

TEST_F(RegistryTest, EvictsLeastRecentlyUsedOverBudget) {
  serve::ReferenceRegistry reg(dir_.string(), base(), /*max_resident=*/2);
  auto a = reg.acquire("alpha");
  reg.acquire("beta");
  reg.acquire("alpha");  // refresh alpha: beta is now the LRU
  reg.acquire("gamma");  // over budget -> beta evicted
  const auto st = reg.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.resident, 2u);
  EXPECT_EQ(st.loads, 3u);
  // An evicted tenant re-acquires as a fresh load, not a hit.
  reg.acquire("beta");
  EXPECT_EQ(reg.stats().loads, 4u);
  // Held references to a (possibly evicted) tenant stay fully usable.
  const auto query = derived_query(refs_["alpha"], 88);
  auto fut = a->service().submit({.id = "late", .query = query});
  EXPECT_EQ(fut.get().status, serve::QueryStatus::kOk);
}

TEST_F(RegistryTest, PinnedTenantsAreExemptFromEviction) {
  serve::ReferenceRegistry reg(dir_.string(), base(), /*max_resident=*/1);
  reg.pin("alpha");
  reg.acquire("beta");
  reg.acquire("gamma");  // evicts beta (LRU unpinned), never alpha
  auto st = reg.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.resident, 2u);  // pinned alpha + gamma
  EXPECT_EQ(reg.stats().loads, 3u);
  reg.acquire("alpha");
  EXPECT_EQ(reg.stats().hits, 1u);

  reg.unpin("alpha");
  reg.acquire("beta");  // now alpha is evictable; LRU is gamma or alpha
  EXPECT_EQ(reg.stats().resident, 1u);
}

TEST_F(RegistryTest, CorruptTenantNeverEvictsAnyone) {
  // Plant a corrupt artifact next to the good ones.
  auto bad = store::build_artifact(refs_["alpha"], cfg_);
  bad[bad.size() / 2] ^= 0x40;
  store::write_artifact_file((dir_ / "broken.gmidx").string(), bad);

  serve::ReferenceRegistry reg(dir_.string(), base(), /*max_resident=*/1);
  EXPECT_EQ(reg.stats().known, 4u);
  reg.acquire("alpha");
  EXPECT_THROW(reg.acquire("broken"), StoreError);
  const auto st = reg.stats();
  EXPECT_EQ(st.resident, 1u);  // alpha untouched
  EXPECT_EQ(st.evictions, 0u);
  // And the registry still works afterwards.
  EXPECT_EQ(reg.acquire("alpha")->name(), "alpha");
  EXPECT_EQ(reg.stats().hits, 1u);
}

TEST_F(RegistryTest, StaleGeometryArtifactIsRejectedAtAcquire) {
  Config other = cfg_;
  other.seed_len = 8;
  store::write_artifact_file(
      (dir_ / "stale.gmidx").string(),
      store::build_artifact(test_reference(800, 99), other));
  serve::ReferenceRegistry reg(dir_.string(), base());
  try {
    reg.acquire("stale");
    FAIL() << "stale-geometry tenant was activated";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("stale geometry"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace gm
