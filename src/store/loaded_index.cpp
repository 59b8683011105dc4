#include "store/loaded_index.h"

#include <stdexcept>
#include <string>

#include "mem/copmem.h"
#include "mem/slamem.h"
#include "obs/registry.h"
#include "util/thread_pool.h"

namespace gm::store {

namespace {

std::string plural_bytes(std::size_t n) { return std::to_string(n); }

}  // namespace

LoadedIndex::LoadedIndex(MappedArtifact artifact)
    : artifact_(std::move(artifact)) {
  obs::Span span("store.materialize", "store");
  span.attr("path", artifact_.path());
  const ArtifactHeader& h = artifact_.header();

  // uint32_t position-overflow guard, reader side: an artifact claiming more
  // bases than the location arrays can address is rejected here with the
  // same limit-naming message the builders raise.
  try {
    index::check_position_range(h.ref_bases, "LoadedIndex");
  } catch (const std::invalid_argument& e) {
    throw StoreError(artifact_.path(), e.what());
  }

  // Reference sequence: reassemble from the packed words; from_packed
  // re-validates word counts, mask tail bits, and sizes.
  const auto packed = artifact_.section_as<std::uint64_t>(SectionId::kSeqPacked);
  std::vector<std::uint64_t> mask;
  if (h.ref_invalid != 0) {
    const auto mask_span =
        artifact_.section_as<std::uint64_t>(SectionId::kSeqMask);
    mask.assign(mask_span.begin(), mask_span.end());
  } else if (artifact_.has_section(SectionId::kSeqMask)) {
    throw StoreError(artifact_.path(), SectionId::kSeqMask,
                     "present but the header records zero invalid bases");
  }
  try {
    ref_ = seq::Sequence::from_packed(
        std::vector<std::uint64_t>(packed.begin(), packed.end()),
        std::move(mask), h.ref_bases);
  } catch (const std::invalid_argument& e) {
    throw StoreError(artifact_.path(), SectionId::kSeqPacked, e.what());
  }
  if (ref_.invalid_count() != h.ref_invalid) {
    throw StoreError(
        artifact_.path(), SectionId::kSeqMask,
        "mask marks " + std::to_string(ref_.invalid_count()) +
            " invalid bases, header records " + std::to_string(h.ref_invalid));
  }

  // K-mer row directory: every row's spans must lie inside the ptrs/locs
  // arrays and describe a well-formed 4^seed_len + 1 bucket table.
  const auto table =
      artifact_.section_as<RowTableEntry>(SectionId::kKmerRowTable);
  row_table_.assign(table.begin(), table.end());
  if (row_table_.size() != h.tile_rows) {
    throw StoreError(artifact_.path(), SectionId::kKmerRowTable,
                     "directory has " + std::to_string(row_table_.size()) +
                         " rows, header records " +
                         std::to_string(h.tile_rows));
  }
  const auto ptrs = artifact_.section_as<std::uint32_t>(SectionId::kKmerPtrs);
  const auto locs = artifact_.section_as<std::uint32_t>(SectionId::kKmerLocs);
  if (h.seed_len == 0 || h.seed_len > 16) {
    throw StoreError(artifact_.path(),
                     "header seed_len " + std::to_string(h.seed_len) +
                         " outside [1, 16]");
  }
  const std::uint64_t want_ptrs =
      (std::uint64_t{1} << (2 * h.seed_len)) + 1;
  for (std::size_t r = 0; r < row_table_.size(); ++r) {
    const RowTableEntry& e = row_table_[r];
    const bool ptrs_ok = e.ptrs_count == want_ptrs &&
                         e.ptrs_offset <= ptrs.size() &&
                         e.ptrs_count <= ptrs.size() - e.ptrs_offset;
    const bool locs_ok = e.locs_offset <= locs.size() &&
                         e.locs_count <= locs.size() - e.locs_offset;
    if (!ptrs_ok || !locs_ok) {
      throw StoreError(artifact_.path(), SectionId::kKmerRowTable,
                       "row " + std::to_string(r) +
                           " points outside the ptrs/locs arrays (file has " +
                           plural_bytes(ptrs.size()) + " ptr and " +
                           plural_bytes(locs.size()) + " loc elements)");
    }
  }
}

LoadedIndex::RowSpans LoadedIndex::row(std::uint32_t row) const {
  if (row >= row_table_.size()) {
    throw StoreError(artifact_.path(), SectionId::kKmerRowTable,
                     "row " + std::to_string(row) + " of " +
                         std::to_string(row_table_.size()) + " requested");
  }
  const RowTableEntry& e = row_table_[row];
  const auto ptrs = artifact_.section_as<std::uint32_t>(SectionId::kKmerPtrs);
  const auto locs = artifact_.section_as<std::uint32_t>(SectionId::kKmerLocs);
  return RowSpans{ptrs.subspan(e.ptrs_offset, e.ptrs_count),
                  locs.subspan(e.locs_offset, e.locs_count)};
}

core::Engine::NativeIndex LoadedIndex::native_index() const {
  obs::Span span("store.native_index", "store");
  core::Engine::NativeIndex out;
  out.rows.reserve(row_table_.size());
  for (std::uint32_t r = 0; r < row_table_.size(); ++r) {
    const RowSpans s = row(r);
    try {
      out.rows.emplace_back(
          header().seed_len, header().step,
          std::vector<std::uint32_t>(s.ptrs.begin(), s.ptrs.end()),
          std::vector<std::uint32_t>(s.locs.begin(), s.locs.end()));
    } catch (const std::invalid_argument& e) {
      throw StoreError(artifact_.path(), SectionId::kKmerPtrs,
                       "row " + std::to_string(r) + ": " + e.what());
    }
  }
  return out;
}

std::span<const std::uint32_t> LoadedIndex::suffix_array() const {
  return artifact_.section_as<std::uint32_t>(SectionId::kSuffixArray);
}

std::span<const std::uint32_t> LoadedIndex::lcp() const {
  return artifact_.section_as<std::uint32_t>(SectionId::kLcp);
}

std::span<const std::uint32_t> LoadedIndex::sparse_sa() const {
  return artifact_.section_as<std::uint32_t>(SectionId::kSparseSa);
}

index::KmerIndex LoadedIndex::copmem_index() const {
  const auto arr =
      artifact_.section_as<std::uint32_t>(SectionId::kCopmemIndex);
  if (arr.size() < 2) {
    throw StoreError(artifact_.path(), SectionId::kCopmemIndex,
                     "payload of " + std::to_string(arr.size()) +
                         " elements cannot hold the seed_len/step prologue");
  }
  const std::uint32_t seed_len = arr[0];
  const std::uint32_t step = arr[1];
  if (seed_len == 0 || seed_len > 16) {
    throw StoreError(artifact_.path(), SectionId::kCopmemIndex,
                     "seed_len " + std::to_string(seed_len) +
                         " outside [1, 16]");
  }
  const std::uint64_t want_ptrs = (std::uint64_t{1} << (2 * seed_len)) + 1;
  if (arr.size() < 2 + want_ptrs) {
    throw StoreError(artifact_.path(), SectionId::kCopmemIndex,
                     "payload of " + std::to_string(arr.size()) +
                         " elements cannot hold 4^seed_len + 1 = " +
                         std::to_string(want_ptrs) + " bucket offsets");
  }
  const auto ptrs = arr.subspan(2, want_ptrs);
  const auto locs = arr.subspan(2 + want_ptrs);
  try {
    return index::KmerIndex(
        seed_len, step, std::vector<std::uint32_t>(ptrs.begin(), ptrs.end()),
        std::vector<std::uint32_t>(locs.begin(), locs.end()));
  } catch (const std::invalid_argument& e) {
    throw StoreError(artifact_.path(), SectionId::kCopmemIndex, e.what());
  }
}

index::FmIndex LoadedIndex::fm_index() const {
  try {
    return index::FmIndex::deserialize(
        artifact_.section(SectionId::kFmIndex));
  } catch (const std::invalid_argument& e) {
    throw StoreError(artifact_.path(), SectionId::kFmIndex, e.what());
  }
}

bool LoadedIndex::geometry_matches(const core::Config& cfg) const {
  const core::Config::Geometry geo = cfg.validated();
  const ArtifactHeader& h = header();
  return h.seed_len == cfg.seed_len && h.step == geo.step &&
         h.tile_len == geo.tile_len && h.min_length == cfg.min_length;
}

void LoadedIndex::throw_if_geometry_mismatch(const core::Config& cfg) const {
  if (geometry_matches(cfg)) return;
  const core::Config::Geometry geo = cfg.validated();
  const ArtifactHeader& h = header();
  // tile_len alone is a property of the run, not of the artifact: the
  // same artifact loads once the run passes the τ/n_block it was built at.
  std::string detail =
      "stale geometry — pass the --tau/--tile-blocks the artifact was built "
      "with (tile_len = tile_blocks·τ·Δs) if only tile_len differs, else "
      "rebuild with `gpumem_cli index-build`; mismatches:";
  const auto add = [&detail](const char* field, std::uint64_t artifact_v,
                             std::uint64_t want_v) {
    if (artifact_v != want_v) {
      detail += std::string(" ") + field + "=" +
                std::to_string(artifact_v) + " (run wants " +
                std::to_string(want_v) + ")";
    }
  };
  add("seed_len", h.seed_len, cfg.seed_len);
  add("step", h.step, geo.step);
  add("tile_len", h.tile_len, geo.tile_len);
  add("min_length", h.min_length, cfg.min_length);
  throw StoreError(artifact_.path(), detail);
}

std::unique_ptr<mem::MemFinder> open_host_finder(
    const std::string& name, const seq::Sequence& ref,
    mem::FinderOptions opt, unsigned seed_len, const LoadedIndex* artifact) {
  if (name == "copmem") {
    // Shards are host work: one per pool worker, never the simulated τ.
    opt.threads =
        static_cast<std::uint32_t>(util::ThreadPool::global().size());
    auto finder = std::make_unique<mem::CopMemFinder>();
    if (artifact != nullptr && artifact->has(SectionId::kCopmemIndex)) {
      finder->adopt_index(ref, opt, artifact->copmem_index());
    } else {
      finder->set_seed_len(seed_len);
      finder->build_index(ref, opt);
    }
    return finder;
  }
  if (name == "slamem" || name == "slamem-lazy") {
    auto finder = std::make_unique<mem::SlaMemFinder>(name == "slamem-lazy");
    if (artifact != nullptr && artifact->has(SectionId::kFmIndex)) {
      finder->adopt_index(ref, opt, artifact->fm_index());
    } else {
      finder->build_index(ref, opt);
    }
    return finder;
  }
  throw std::invalid_argument("open_host_finder: no host finder named '" +
                              name + "' (copmem, slamem, slamem-lazy)");
}

}  // namespace gm::store
