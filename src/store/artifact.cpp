#include "store/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "core/pipeline.h"
#include "index/fm_index.h"
#include "index/lcp.h"
#include "index/sparse_suffix_array.h"
#include "index/suffix_array.h"
#include "obs/registry.h"
#include "util/checksum.h"

namespace gm::store {

namespace {

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) |
         (v << 24);
}

/// FNV-1a 64 of the header (checksum field zeroed) followed by the raw
/// section table — the digest stored in ArtifactHeader::header_checksum.
std::uint64_t header_digest(const ArtifactHeader& header,
                            const SectionEntry* table, std::size_t count) {
  ArtifactHeader h = header;
  h.header_checksum = 0;
  util::Fnv1a64 d;
  d.update(&h, sizeof h);
  d.update(table, count * sizeof(SectionEntry));
  return d.digest();
}

std::string errno_detail(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

void ArtifactWriter::add_section(SectionId id,
                                 std::span<const std::uint8_t> payload) {
  for (const Pending& p : sections_) {
    if (p.id == id) {
      throw std::invalid_argument(std::string("ArtifactWriter: section ") +
                                  section_name(id) + " added twice");
    }
  }
  sections_.push_back(
      Pending{id, std::vector<std::uint8_t>(payload.begin(), payload.end())});
}

std::vector<std::uint8_t> ArtifactWriter::to_buffer() const {
  std::vector<SectionEntry> table(sections_.size());
  std::size_t cursor =
      sizeof(ArtifactHeader) + sections_.size() * sizeof(SectionEntry);
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    cursor = align_up(cursor, kSectionAlign);
    table[s].id = static_cast<std::uint32_t>(sections_[s].id);
    table[s].offset = cursor;
    table[s].bytes = sections_[s].payload.size();
    table[s].checksum = util::fnv1a64_striped(sections_[s].payload.data(),
                                              sections_[s].payload.size());
    cursor += sections_[s].payload.size();
  }

  ArtifactHeader header = header_;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kFormatVersion;
  header.endian_tag = kEndianTag;
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.total_bytes = cursor;
  header.header_checksum = header_digest(header, table.data(), table.size());

  std::vector<std::uint8_t> out(cursor, 0);
  std::memcpy(out.data(), &header, sizeof header);
  std::memcpy(out.data() + sizeof header, table.data(),
              table.size() * sizeof(SectionEntry));
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    std::memcpy(out.data() + table[s].offset, sections_[s].payload.data(),
                sections_[s].payload.size());
  }
  return out;
}

void ArtifactWriter::write_file(const std::string& path) const {
  write_artifact_file(path, to_buffer());
}

void write_artifact_file(const std::string& path,
                         std::span<const std::uint8_t> image) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw StoreError(path, errno_detail("cannot create temporary file"));
  }
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const int close_rc = std::fclose(f);
  if (written != image.size() || close_rc != 0) {
    std::remove(tmp.c_str());
    throw StoreError(path, errno_detail("short write"));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StoreError(path, errno_detail("rename into place failed"));
  }
  if (obs::enabled()) {
    auto& m = obs::Registry::global().metrics();
    m.counter("store.writes", "index artifacts written").add();
    m.distribution("store.write_bytes", "artifact file sizes written")
        .observe(static_cast<double>(image.size()));
  }
}

std::vector<std::uint8_t> build_artifact(const seq::Sequence& ref,
                                         const core::Config& cfg,
                                         const BuildOptions& opt) {
  obs::Span span("store.build_artifact", "store");
  if (ref.empty()) {
    throw std::invalid_argument("build_artifact: empty reference");
  }
  if (opt.ref_name.size() > kRefNameBytes) {
    throw std::invalid_argument(
        "build_artifact: reference name \"" + opt.ref_name + "\" exceeds " +
        std::to_string(kRefNameBytes) + " bytes");
  }
  const core::Config::Geometry geo = cfg.validated();

  ArtifactHeader header{};
  header.ref_bases = ref.size();
  header.ref_invalid = ref.invalid_count();
  header.seed_len = cfg.seed_len;
  header.step = geo.step;
  header.tile_len = geo.tile_len;
  header.tau = cfg.threads;
  header.tile_rows = static_cast<std::uint32_t>(
      (ref.size() + geo.tile_len - 1) / geo.tile_len);
  header.min_length = cfg.min_length;
  header.sparseness = opt.sparseness;
  header.fm_sa_sample = opt.fm_sa_sample;
  std::memcpy(header.ref_name, opt.ref_name.data(), opt.ref_name.size());

  ArtifactWriter writer(header);
  writer.add_section(SectionId::kSeqPacked,
                     std::span<const std::uint64_t>(ref.packed_words()));
  if (ref.has_invalid()) {
    writer.add_section(SectionId::kSeqMask,
                       std::span<const std::uint64_t>(ref.invalid_words()));
  }

  // The per-tile-row k-mer indexes, exactly as the engines build them.
  const core::Engine::NativeIndex native =
      core::Engine(cfg).build_native_index(ref);
  std::vector<RowTableEntry> row_table(native.rows.size());
  std::vector<std::uint32_t> all_ptrs;
  std::vector<std::uint32_t> all_locs;
  for (std::size_t r = 0; r < native.rows.size(); ++r) {
    const index::KmerIndex& row = native.rows[r];
    row_table[r].ptrs_offset = all_ptrs.size();
    row_table[r].ptrs_count = row.ptrs().size();
    row_table[r].locs_offset = all_locs.size();
    row_table[r].locs_count = row.locs().size();
    all_ptrs.insert(all_ptrs.end(), row.ptrs().begin(), row.ptrs().end());
    all_locs.insert(all_locs.end(), row.locs().begin(), row.locs().end());
  }
  writer.add_section(SectionId::kKmerRowTable,
                     std::span<const RowTableEntry>(row_table));
  writer.add_section(SectionId::kKmerPtrs,
                     std::span<const std::uint32_t>(all_ptrs));
  writer.add_section(SectionId::kKmerLocs,
                     std::span<const std::uint32_t>(all_locs));

  if (opt.with_suffix_array) {
    const std::vector<std::uint32_t> sa = index::build_suffix_array(ref);
    const std::vector<std::uint32_t> lcp = index::build_lcp_kasai(ref, sa);
    writer.add_section(SectionId::kSuffixArray,
                       std::span<const std::uint32_t>(sa));
    writer.add_section(SectionId::kLcp, std::span<const std::uint32_t>(lcp));
  }
  if (opt.sparseness != 0) {
    const index::SparseSuffixArray ssa(ref, opt.sparseness);
    writer.add_section(SectionId::kSparseSa,
                       std::span<const std::uint32_t>(ssa.positions()));
  }
  if (opt.fm_sa_sample != 0) {
    const index::FmIndex fm(ref, opt.fm_sa_sample);
    std::vector<std::uint8_t> image;
    fm.serialize(image);
    writer.add_section(SectionId::kFmIndex,
                       std::span<const std::uint8_t>(image));
  }
  if (opt.copmem_step != 0) {
    const index::KmerIndex cop(ref, 0, ref.size(), cfg.seed_len,
                               opt.copmem_step);
    std::vector<std::uint32_t> payload;
    payload.reserve(2 + cop.ptrs().size() + cop.locs().size());
    payload.push_back(cop.seed_len());
    payload.push_back(cop.step());
    payload.insert(payload.end(), cop.ptrs().begin(), cop.ptrs().end());
    payload.insert(payload.end(), cop.locs().begin(), cop.locs().end());
    writer.add_section(SectionId::kCopmemIndex,
                       std::span<const std::uint32_t>(payload));
  }

  std::vector<std::uint8_t> out = writer.to_buffer();
  span.attr("bytes", static_cast<std::uint64_t>(out.size()));
  span.attr("ref_bases", static_cast<std::uint64_t>(ref.size()));
  return out;
}

// ---------------------------------------------------------------------------
// Reader.

struct MappedArtifact::Backing {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  void* map_base = nullptr;  // nonnull: mmap'd region to munmap
  std::vector<std::uint8_t> owned;

  ~Backing() {
    if (map_base != nullptr) ::munmap(map_base, size);
  }
};

MappedArtifact::MappedArtifact(std::shared_ptr<const Backing> backing,
                               std::string path)
    : backing_(std::move(backing)), path_(std::move(path)) {
  verify();
}

MappedArtifact MappedArtifact::open_file(const std::string& path) {
  obs::Span span("store.open", "store");
  span.attr("path", path);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError(path, errno_detail("cannot open"));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = errno_detail("fstat failed");
    ::close(fd);
    throw StoreError(path, detail);
  }
  auto backing = std::make_shared<Backing>();
  backing->size = static_cast<std::size_t>(st.st_size);
  if (backing->size > 0) {
    void* base =
        ::mmap(nullptr, backing->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      backing->map_base = base;
      backing->data = static_cast<const std::uint8_t*>(base);
    } else {
      // mmap unavailable (exotic filesystem): buffered fallback.
      backing->owned.resize(backing->size);
      std::size_t got = 0;
      while (got < backing->size) {
        const ssize_t n = ::read(fd, backing->owned.data() + got,
                                 backing->size - got);
        if (n <= 0) {
          ::close(fd);
          throw StoreError(path, errno_detail("read failed"));
        }
        got += static_cast<std::size_t>(n);
      }
      backing->data = backing->owned.data();
    }
  }
  ::close(fd);
  if (obs::enabled()) {
    auto& m = obs::Registry::global().metrics();
    m.counter("store.opens", "index artifacts opened and verified").add();
    m.distribution("store.open_bytes", "artifact file sizes opened")
        .observe(static_cast<double>(backing->size));
  }
  return MappedArtifact(std::move(backing), path);
}

MappedArtifact MappedArtifact::from_buffer(std::vector<std::uint8_t> bytes,
                                           std::string label) {
  auto backing = std::make_shared<Backing>();
  backing->owned = std::move(bytes);
  backing->data = backing->owned.data();
  backing->size = backing->owned.size();
  return MappedArtifact(std::move(backing), std::move(label));
}

std::size_t MappedArtifact::file_bytes() const noexcept {
  return backing_->size;
}

bool MappedArtifact::is_mapped() const noexcept {
  return backing_->map_base != nullptr;
}

void MappedArtifact::verify() {
  const std::uint8_t* data = backing_->data;
  const std::size_t size = backing_->size;

  if (size < sizeof(ArtifactHeader)) {
    throw StoreError(path_, "truncated: " + std::to_string(size) +
                                " bytes, the header alone needs " +
                                std::to_string(sizeof(ArtifactHeader)));
  }
  std::memcpy(&header_, data, sizeof header_);

  if (std::memcmp(header_.magic, kMagic, sizeof kMagic) != 0) {
    throw StoreError(path_, "bad magic (not a gmidx index artifact)");
  }
  if (header_.endian_tag != kEndianTag) {
    if (header_.endian_tag == byteswap32(kEndianTag)) {
      throw StoreError(path_,
                       "written on an opposite-endianness host; rebuild the "
                       "artifact on this machine");
    }
    throw StoreError(path_, "bad endianness tag");
  }
  if (header_.version != kFormatVersion) {
    throw StoreError(
        path_, "format version " + std::to_string(header_.version) +
                   "; this build reads version " +
                   std::to_string(kFormatVersion) +
                   " — rebuild with `gpumem_cli index-build`");
  }

  const std::size_t table_bytes =
      std::size_t{header_.section_count} * sizeof(SectionEntry);
  if (sizeof(ArtifactHeader) + table_bytes > size) {
    throw StoreError(path_, "truncated: section table of " +
                                std::to_string(header_.section_count) +
                                " entries does not fit in " +
                                std::to_string(size) + " bytes");
  }
  table_.resize(header_.section_count);
  std::memcpy(table_.data(), data + sizeof(ArtifactHeader), table_bytes);

  const std::uint64_t want_header =
      header_digest(header_, table_.data(), table_.size());
  if (header_.header_checksum != want_header) {
    throw StoreError(path_, "header checksum mismatch");
  }
  if (header_.total_bytes != size) {
    throw StoreError(path_, "truncated: file is " + std::to_string(size) +
                                " bytes, header records " +
                                std::to_string(header_.total_bytes));
  }

  std::size_t prev_end = sizeof(ArtifactHeader) + table_bytes;
  for (const SectionEntry& e : table_) {
    const auto id = static_cast<SectionId>(e.id);
    if (std::string_view(section_name(id)) == "unknown") {
      throw StoreError(path_, "unknown section id " + std::to_string(e.id));
    }
    for (const SectionEntry& other : table_) {
      if (&other != &e && other.id == e.id) {
        throw StoreError(path_, id, "listed twice in the section table");
      }
    }
    if (e.offset % kSectionAlign != 0) {
      throw StoreError(path_, id, "misaligned payload offset");
    }
    if (e.offset < prev_end || e.bytes > size || e.offset > size - e.bytes) {
      throw StoreError(path_, id, "payload outside the file bounds");
    }
    prev_end = e.offset + e.bytes;
    const std::uint64_t got =
        util::fnv1a64_striped(data + e.offset, e.bytes);
    if (got != e.checksum) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "0x%016llx, stored 0x%016llx",
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(e.checksum));
      throw StoreError(path_, id,
                       std::string("checksum mismatch (computed ") + buf +
                           ") — the artifact is corrupted");
    }
  }
}

bool MappedArtifact::has_section(SectionId id) const noexcept {
  for (const SectionEntry& e : table_) {
    if (e.id == static_cast<std::uint32_t>(id)) return true;
  }
  return false;
}

std::span<const std::uint8_t> MappedArtifact::section(SectionId id) const {
  for (const SectionEntry& e : table_) {
    if (e.id == static_cast<std::uint32_t>(id)) {
      return {backing_->data + e.offset, e.bytes};
    }
  }
  throw StoreError(path_, id, "section not present in this artifact");
}

}  // namespace gm::store
