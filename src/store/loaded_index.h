// Adapters from a verified artifact mapping to the structures the engines
// and finders consume.
//
// LoadedIndex materializes the reference sequence once at construction (a
// word-level copy out of the mapping — Sequence owns its storage) and
// validates the k-mer row directory, then hands out:
//   - zero-copy spans into the mapping (row ptrs/locs, SA, LCP, sparse SA)
//     for consumers that can read in place (device uploads, interval search),
//   - by-value structures (Engine::NativeIndex, index::FmIndex) for
//     consumers that own their index.
// Geometry compatibility against a requesting core::Config is an explicit
// check: a stale artifact (built under different seed_len/step/tile_len/
// min_length) is rejected with a StoreError naming every mismatched field,
// because serving from it would silently drop MEMs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "index/fm_index.h"
#include "index/kmer_index.h"
#include "mem/finder.h"
#include "seq/sequence.h"
#include "store/artifact.h"
#include "store/format.h"

namespace gm::store {

class LoadedIndex {
 public:
  /// Materializes and shape-checks `artifact`. Throws StoreError on any
  /// inconsistency between the header and the section contents.
  explicit LoadedIndex(MappedArtifact artifact);

  const MappedArtifact& artifact() const noexcept { return artifact_; }
  const ArtifactHeader& header() const noexcept {
    return artifact_.header();
  }
  const seq::Sequence& reference() const noexcept { return ref_; }

  std::uint32_t tile_rows() const noexcept { return header().tile_rows; }

  /// One tile row's (ptrs, locs) arrays, pointing into the mapping.
  struct RowSpans {
    std::span<const std::uint32_t> ptrs;
    std::span<const std::uint32_t> locs;
  };
  RowSpans row(std::uint32_t row) const;

  /// Rebuilds the native-backend prebuilt index (Engine::run_native_prebuilt)
  /// from the row directory. build_seconds is 0 — the cost lives in the
  /// artifact. Bit-identical to Engine::build_native_index on the same
  /// reference and geometry by construction of the writer.
  core::Engine::NativeIndex native_index() const;

  bool has(SectionId id) const noexcept { return artifact_.has_section(id); }

  /// Optional sections; each throws StoreError when absent.
  std::span<const std::uint32_t> suffix_array() const;
  std::span<const std::uint32_t> lcp() const;
  std::span<const std::uint32_t> sparse_sa() const;
  index::FmIndex fm_index() const;
  /// The copMEM sampled index (kCopmemIndex), rebuilt by value. Throws
  /// StoreError when absent or malformed.
  index::KmerIndex copmem_index() const;

  /// True when `cfg`'s resolved geometry matches what the artifact was
  /// built under (seed_len, step, tile_len, min_length).
  bool geometry_matches(const core::Config& cfg) const;
  /// geometry_matches or a StoreError naming every mismatched field.
  void throw_if_geometry_mismatch(const core::Config& cfg) const;

 private:
  MappedArtifact artifact_;
  seq::Sequence ref_;
  std::vector<RowTableEntry> row_table_;
};

/// Opens the host finder `name` — "copmem", "slamem" or "slamem-lazy" —
/// over `ref`, which it keeps a pointer to. Adopts `artifact`'s
/// kCopmemIndex / kFmIndex section when the artifact is given and carries
/// it, and builds the index otherwise; `ref` must then be the artifact's
/// reference. copMEM builds use seeds of `seed_len` (0 = auto-size) and
/// shard find() over the host thread pool. Throws std::invalid_argument
/// for any other name.
std::unique_ptr<mem::MemFinder> open_host_finder(
    const std::string& name, const seq::Sequence& ref,
    mem::FinderOptions opt, unsigned seed_len,
    const LoadedIndex* artifact = nullptr);

}  // namespace gm::store
