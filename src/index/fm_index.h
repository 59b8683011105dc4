// FM-index (Ferragina & Manzini, the paper's reference [9]): BWT with
// two-bitplane rank blocks, a sampled suffix array for locate, and a
// byte-saturated LCP with an exception table — the memory-light LCP idea
// behind slaMEM (paper reference [8]).
//
// Rows are the n+1 suffixes of text+'$' in lexicographic order ('$' < A).
// Row 0 is always the '$' suffix.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "index/sa_search.h"
#include "seq/sequence.h"

namespace gm::index {

/// Thrown by FmIndex::widen when the widened interval would exceed the
/// caller's max_rows cap. Deterministic: the message names the depth and
/// the cap, so a pathological low-depth widen fails the same way every run
/// instead of going quadratic.
class WidenOverflowError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FmIndex {
 public:
  /// Builds the index; `sa_sample` controls locate cost/memory (every row
  /// whose suffix position is ≡ 0 mod sa_sample stores its position).
  explicit FmIndex(const seq::Sequence& text, std::uint32_t sa_sample = 32);

  /// Number of BWT rows = text length + 1.
  std::uint32_t rows() const noexcept { return n_ + 1; }

  /// Interval of all rows (empty pattern).
  SaInterval all_rows() const noexcept { return {0, n_ + 1}; }

  /// Backward-search step: rows whose suffix starts with c followed by the
  /// pattern that `iv` represents.
  SaInterval extend(SaInterval iv, std::uint8_t c) const noexcept {
    return {c_[c] + rank(c, iv.lo), c_[c] + rank(c, iv.hi)};
  }

  /// Text position of the suffix in `row` (0 <= row <= n; row 0 gives n,
  /// the empty suffix).
  std::uint32_t locate(std::uint32_t row) const;

  /// BWT character of `row`: the code of text[locate(row) - 1], or 4 for
  /// the primary row, whose suffix starts the text and whose BWT character
  /// is '$'. One bitplane read, no LF walk.
  std::uint8_t bwt_at(std::uint32_t row) const noexcept {
    return row == primary_ ? std::uint8_t{4} : bwt_code(row);
  }

  /// LCP between the suffixes of row-1 and row (row 0 -> 0). Exact despite
  /// the byte-sampled storage (large values come from the exception table).
  std::uint32_t lcp_at(std::uint32_t row) const;

  /// Widens `iv` to every row sharing at least `depth` characters with it.
  /// Cost is linear in the number of rows added. `max_rows` bounds that
  /// cost: a nonzero cap makes widen throw WidenOverflowError as soon as
  /// the interval would cover more than `max_rows` rows (0 = unbounded).
  SaInterval widen(SaInterval iv, std::uint32_t depth,
                   std::uint32_t max_rows = 0) const;

  /// Occurrences of `c` in BWT rows [0, i) — exposed for tests.
  std::uint32_t rank(std::uint8_t c, std::uint32_t i) const noexcept;

  std::size_t bytes() const noexcept;

  /// Appends a self-contained byte image of the index (the store/ artifact
  /// FM section payload). Deterministic: exception entries are emitted in
  /// ascending row order, so equal indexes serialize to equal bytes.
  void serialize(std::vector<std::uint8_t>& out) const;

  /// Rebuilds an index from serialize() output. Throws
  /// std::invalid_argument on truncated or internally inconsistent bytes —
  /// shape checks only; content integrity is the artifact checksum's job.
  static FmIndex deserialize(std::span<const std::uint8_t> bytes);

 private:
  FmIndex() = default;  // deserialize() fills every field itself

  struct RankBlock {
    std::array<std::uint32_t, 4> cnt{};  // cumulative counts at block start
    std::uint64_t lo = 0;                // low bitplane of 64 BWT codes
    std::uint64_t hi = 0;                // high bitplane
  };

  std::uint8_t bwt_code(std::uint32_t row) const noexcept {
    const RankBlock& b = blocks_[row >> 6];
    const unsigned off = row & 63u;
    return static_cast<std::uint8_t>(((b.lo >> off) & 1) |
                                     (((b.hi >> off) & 1) << 1));
  }

  std::uint32_t lf(std::uint32_t row) const noexcept {
    const std::uint8_t c = bwt_code(row);
    return c_[c] + rank(c, row);
  }

  std::uint32_t n_ = 0;        // text length
  std::uint32_t primary_ = 0;  // row whose BWT character is '$'
  std::uint32_t sa_sample_ = 32;
  std::array<std::uint32_t, 4> c_{};  // C[c]: #symbols < c (incl. '$')
  std::vector<RankBlock> blocks_;

  // Sampled SA: mark bits (one word per 64 rows) + prefix popcounts +
  // packed positions of marked rows.
  std::vector<std::uint64_t> mark_bits_;
  std::vector<std::uint32_t> mark_rank_;
  std::vector<std::uint32_t> mark_values_;

  // Byte-saturated LCP with exceptions for values >= 255, kept as a
  // (row, value) vector sorted by row: lcp_at sits on the matching-
  // statistics hot loop, and a binary search over a contiguous array beats
  // the hash-map probe it replaced (and serializes without a sort pass).
  std::vector<std::uint8_t> lcp8_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lcp_exceptions_;
};

}  // namespace gm::index
