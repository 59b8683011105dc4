// On-disk layout of a persistent GPUMEM index artifact (*.gmidx).
//
// A production service cannot re-pay Table III's index-build cost at every
// process start, so the build-once / serve-many workflow serializes every
// index structure the finders need into one immutable, mmap-friendly file:
//
//   offset 0                 ArtifactHeader   (128 bytes, checksummed)
//   offset 128               SectionEntry[n]  (32 bytes each, covered by
//                                              the header checksum)
//   64-byte-aligned offsets  section payloads (one 8-lane striped FNV-1a
//                                              64 each — fast enough that
//                                              full verification at open
//                                              stays far below build cost)
//
// Sections are raw little-endian arrays aligned to 64 bytes so a reader can
// hand out typed spans straight into the mapping (zero-copy); the padding
// between sections is zeros and is covered by no checksum. Every structural
// invariant is checked at open time — magic, version, endianness tag,
// header checksum, section bounds/alignment/overlap, per-section checksums,
// and the recorded total size vs the actual file size (truncation) — and
// any violation is a deterministic store::StoreError, never UB.
//
// Versioning policy (docs/STORAGE.md): kFormatVersion bumps on any layout
// change; readers reject files whose version differs from their own (no
// forward or backward compat window yet — artifacts are cheap to rebuild
// with `gpumem_cli index-build`). Unknown section ids are rejected rather
// than skipped so a truncated enum mapping can't silently drop data.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace gm::store {

inline constexpr char kMagic[8] = {'G', 'M', 'I', 'D', 'X', '\0', '\0', '\0'};
inline constexpr std::uint32_t kFormatVersion = 2;
/// Written as the native byte-order fingerprint; a reader on the opposite
/// endianness sees the byte-swapped value and rejects the file instead of
/// misinterpreting every array. (The project targets little-endian hosts;
/// the static_assert below keeps big-endian builds from writing files that
/// claim otherwise.)
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kSectionAlign = 64;

static_assert(std::endian::native == std::endian::little,
              "store/: the artifact format is defined little-endian; add "
              "byte-swapping readers before enabling big-endian hosts");

/// Section identities. Values are part of the on-disk format — append only.
enum class SectionId : std::uint32_t {
  kSeqPacked = 1,   ///< uint64[]: 2-bit packed reference words
  kSeqMask = 2,     ///< uint64[]: validity side-mask (absent when all-ACGT)
  kKmerRowTable = 3,///< RowTableEntry[tile_rows]: per-row spans into 4/5
  kKmerPtrs = 4,    ///< uint32[]: concatenated per-row bucket offsets
  kKmerLocs = 5,    ///< uint32[]: concatenated per-row sampled positions
  kSuffixArray = 6, ///< uint32[]: full SA-IS suffix array of the reference
  kLcp = 7,         ///< uint32[]: Kasai LCP over kSuffixArray
  kSparseSa = 8,    ///< uint32[]: sparse suffix positions, sorted
  kFmIndex = 9,     ///< index::FmIndex::serialize() byte image
  /// uint32[]: { seed_len, step, ptrs[4^seed_len + 1]..., locs... } — a
  /// whole-reference sampled k-mer index (step = copMEM's k₁), the
  /// CopMemFinder's substrate. Self-describing so the reader needs no new
  /// header fields.
  kCopmemIndex = 10,
};

/// Human-readable section name for error messages and `index-info`.
const char* section_name(SectionId id) noexcept;

/// One row of the per-tile-row k-mer index directory (section 3). Offsets
/// and counts are in *elements* of the kKmerPtrs / kKmerLocs arrays.
struct RowTableEntry {
  std::uint64_t ptrs_offset = 0;
  std::uint64_t ptrs_count = 0;
  std::uint64_t locs_offset = 0;
  std::uint64_t locs_count = 0;
};
static_assert(sizeof(RowTableEntry) == 32);
static_assert(std::is_trivially_copyable_v<RowTableEntry>);

struct SectionEntry {
  std::uint32_t id = 0;        ///< SectionId
  std::uint32_t reserved = 0;  ///< zero; room for per-section flags
  std::uint64_t offset = 0;    ///< from file start; kSectionAlign-aligned
  std::uint64_t bytes = 0;     ///< payload size (alignment padding excluded)
  std::uint64_t checksum = 0;  ///< util::fnv1a64_striped of the payload
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

inline constexpr std::size_t kRefNameBytes = 40;

/// Fixed-size file header. `header_checksum` is the FNV-1a 64 of the header
/// bytes (with this field zeroed) followed by the raw section table, so one
/// digest covers everything that locates the payloads.
struct ArtifactHeader {
  char magic[8] = {};                ///< kMagic
  std::uint32_t version = 0;         ///< kFormatVersion
  std::uint32_t endian_tag = 0;      ///< kEndianTag
  std::uint64_t header_checksum = 0;

  std::uint32_t section_count = 0;
  std::uint32_t flags = 0;           ///< zero; reserved

  // Reference identity + the index geometry the artifact was built for. A
  // loader must reject an artifact whose geometry disagrees with the
  // requesting config (a stale artifact would silently miss MEMs).
  std::uint64_t ref_bases = 0;       ///< sequence length in bases
  std::uint64_t ref_invalid = 0;     ///< masked (non-ACGT) positions
  std::uint32_t seed_len = 0;        ///< ls
  std::uint32_t step = 0;            ///< resolved delta_s (never 0)
  std::uint32_t tile_len = 0;        ///< l_tile the row partition used
  std::uint32_t tile_rows = 0;       ///< ceil(ref_bases / tile_len)
  std::uint32_t min_length = 0;      ///< L the geometry was resolved under
  std::uint32_t sparseness = 0;      ///< K of kSparseSa (0 = no section)
  std::uint32_t fm_sa_sample = 0;    ///< sample rate of kFmIndex (0 = none)
  std::uint32_t tau = 0;             ///< τ the tile length was resolved at

  char ref_name[kRefNameBytes] = {}; ///< NUL-padded registry tenant name

  std::uint64_t total_bytes = 0;     ///< exact file size (truncation check)

  /// n_block = tile_len / (τ·Δs); 0 when the recorded geometry does not
  /// divide (a config with 0 blocks fails validation).
  std::uint32_t tile_blocks() const {
    const std::uint64_t block = std::uint64_t{tau} * step;
    return block == 0 || tile_len % block != 0
               ? 0
               : static_cast<std::uint32_t>(tile_len / block);
  }

  std::string name() const {
    return std::string(ref_name,
                       strnlen(ref_name, kRefNameBytes));
  }
};
static_assert(sizeof(ArtifactHeader) == 128);
static_assert(std::is_trivially_copyable_v<ArtifactHeader>);

/// Deterministic rejection of an unusable artifact: every open/verify
/// failure — I/O, bad magic, version or endianness mismatch, checksum
/// mismatch, truncation, malformed section geometry — throws this, with
/// the file path and (when known) the offending section in the message.
class StoreError : public std::runtime_error {
 public:
  StoreError(const std::string& path, const std::string& detail)
      : std::runtime_error("index artifact " + path + ": " + detail),
        path_(path) {}
  StoreError(const std::string& path, SectionId section,
             const std::string& detail)
      : std::runtime_error("index artifact " + path + ": section " +
                           section_name(section) + ": " + detail),
        path_(path) {}

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

inline const char* section_name(SectionId id) noexcept {
  switch (id) {
    case SectionId::kSeqPacked: return "seq-packed";
    case SectionId::kSeqMask: return "seq-mask";
    case SectionId::kKmerRowTable: return "kmer-row-table";
    case SectionId::kKmerPtrs: return "kmer-ptrs";
    case SectionId::kKmerLocs: return "kmer-locs";
    case SectionId::kSuffixArray: return "suffix-array";
    case SectionId::kLcp: return "lcp";
    case SectionId::kSparseSa: return "sparse-sa";
    case SectionId::kFmIndex: return "fm-index";
    case SectionId::kCopmemIndex: return "copmem-index";
  }
  return "unknown";
}

}  // namespace gm::store
