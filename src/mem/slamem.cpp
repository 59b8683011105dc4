#include "mem/slamem.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "mem/clip.h"
#include "mem/common.h"
#include "util/timer.h"

namespace gm::mem {

void SlaMemFinder::build_index(const seq::Sequence& ref,
                               const FinderOptions& opt) {
  validate_finder_options("SlaMemFinder", opt);
  ref_ = &ref;
  opt_ = opt;
  fm_ = std::make_unique<index::FmIndex>(ref);
}

void SlaMemFinder::adopt_index(const seq::Sequence& ref,
                               const FinderOptions& opt, index::FmIndex fm) {
  validate_finder_options("SlaMemFinder", opt);
  if (fm.rows() != ref.size() + 1) {
    throw std::invalid_argument(
        "SlaMemFinder::adopt_index: FM index rows do not match reference");
  }
  ref_ = &ref;
  opt_ = opt;
  fm_ = std::make_unique<index::FmIndex>(std::move(fm));
}

std::vector<Mem> SlaMemFinder::find(const seq::Sequence& query) const {
  return find_at(query, opt_.min_length);
}

std::vector<Mem> SlaMemFinder::find_at(const seq::Sequence& query,
                                       std::uint32_t min_length) const {
  if (!fm_) throw std::logic_error("SlaMemFinder: no index built");
  if (min_length == 0) {
    throw std::invalid_argument("SlaMemFinder::find_at: min_length must be >= 1");
  }
  util::Timer timer;
  std::vector<Mem> out;
  Work work;
  if (!query.empty()) {
    if (lazy()) {
      find_lazy(query, min_length, out, work);
    } else {
      find_eager(query, min_length, out, work);
    }
    clip_invalid_bases(*ref_, query, out, min_length);
    sort_unique(out);
  }
  last_seconds_ = timer.seconds();
  last_work_ = work;
  return out;
}

void SlaMemFinder::emit_rows(index::SaInterval iv, const seq::Sequence& query,
                             std::uint32_t j, std::uint32_t L,
                             std::vector<Mem>& out, Work& work) const {
  // All reference positions matching >= L characters at j: the interval of
  // query[j .. j+L), reached by widening (trimming the window's right end).
  // A row whose BWT character, ref[r-1], equals query[j-1] extends one
  // further left — exactly the rows left_maximal() rejects — so it is
  // dropped before its locate() LF walk. The primary row (r == 0) reads 4
  // and j == 0 compares against 5: neither drops anything.
  const index::SaInterval at_L = fm_->widen(iv, L);
  const std::uint8_t left = j > 0 ? query.base(j - 1) : std::uint8_t{5};
  work.rows_visited += at_L.hi - at_L.lo;
  for (std::uint32_t row = at_L.lo; row < at_L.hi; ++row) {
    if (fm_->bwt_at(row) == left) continue;
    ++work.rows_located;
    emit_exact_candidate(*ref_, query, fm_->locate(row), j, L, out);
  }
}

void SlaMemFinder::find_eager(const seq::Sequence& query, std::uint32_t L,
                              std::vector<Mem>& out, Work& work) const {
  // Right-to-left matching-statistics sweep (Ohlebusch-style backward
  // search): (iv, m) is the FM row interval of the longest reference match
  // of the window query[j .. j+m). Prepending query[j-1] is one backward
  // step; when it fails, the window is shortened from the right by jumping
  // to the parent LCP interval — the operation slaMEM's sampled LCP array
  // accelerates.
  index::SaInterval iv = fm_->all_rows();
  std::uint32_t m = 0;
  for (std::size_t jj = query.size(); jj-- > 0;) {
    const std::uint32_t j = static_cast<std::uint32_t>(jj);
    const std::uint8_t c = query.base(j);
    for (;;) {
      const index::SaInterval grown = fm_->extend(iv, c);
      if (!grown.empty()) {
        iv = grown;
        ++m;
        break;
      }
      if (m == 0) {
        iv = fm_->all_rows();
        break;
      }
      // Parent jump: widen to the deepest branching depth below m.
      const std::uint32_t parent_depth =
          std::max(fm_->lcp_at(iv.lo), fm_->lcp_at(iv.hi));
      m = std::min(m - 1, parent_depth);
      iv = fm_->widen(iv, m);
      if (m == 0) iv = fm_->all_rows();
    }
    if (m >= L) emit_rows(iv, query, j, L, out, work);
  }
}

void SlaMemFinder::find_lazy(const seq::Sequence& query, std::uint32_t L,
                             std::vector<Mem>& out, Work& work) const {
  // Long-MEM sweep. A MEM of length >= L starts at j iff the window
  // query[j .. j+L) occurs in the reference, i.e. iff MS[j] >= L — so the
  // sweep only needs MS *thresholded* at L, never the exact values, and any
  // absent substring query[a .. b) certifies a whole block of dead starts at
  // once: every window containing it, j in [b-L, a]. Right-to-left over the
  // frontier f (highest unresolved start):
  //
  //  1. Probe: backward-search the short string query[f .. f+lambda). If it
  //     is absent, every start in [f+lambda-L, f] is dead — the frontier
  //     jumps L-lambda+1 positions for at most lambda extend steps.
  //  2. Otherwise run the eager MS recurrence from a cold start at
  //     R0 = f+L. From a cold start the tracked depth is exactly
  //     min(MS[x], R0-x) (occurrence is prefix-closed), so for every x <= f
  //     the threshold test m >= L is exact. Positions reaching depth >= L
  //     are recorded with their interval; their lcp widening to depth L and
  //     all locate() calls are batch-deferred to the end. The moment the
  //     sweep is past f and its depth drops below lambda/2, the string
  //     query[x .. x+m+1) is a fresh absence certificate — jump to
  //     x+m-L and go back to probing.
  //
  // Outputs are bit-identical to eager mode: the confirmed set is exactly
  // {x : MS[x] >= L}, and widen(iv, L) lands on the same maximal depth-L
  // interval from any nonempty sub-interval of it.
  const std::int64_t n = static_cast<std::int64_t>(query.size());
  const std::int64_t len = static_cast<std::int64_t>(L);
  if (n < len) return;  // no window of length L exists; eager finds nothing

  struct Confirmed {
    index::SaInterval iv;  // interval of query[j .. j+m) at depth m >= L
    std::uint32_t j;
  };
  std::vector<Confirmed> confirmed;

  // Probe length: past the random-match noise floor (~log4 of the reference
  // length) so probes in alignment deserts actually come back absent, short
  // enough that a probe is much cheaper than the L-lambda starts it kills.
  const std::int64_t lambda = std::min<std::int64_t>(len - 1, 32);
  const std::uint32_t exit_depth = static_cast<std::uint32_t>(lambda / 2);

  std::int64_t f = n - len;  // highest unresolved window start
  while (f >= 0) {
    // Probe query[f .. f+lambda).
    index::SaInterval iv = fm_->all_rows();
    bool absent = false;
    for (std::int64_t p = f + lambda; p-- > f;) {
      const index::SaInterval grown =
          fm_->extend(iv, query.base(static_cast<std::uint32_t>(p)));
      if (grown.empty()) {
        absent = true;
        break;
      }
      iv = grown;
    }
    if (absent) {
      f = f + lambda - len - 1;  // dead: [f+lambda-L, f]
      continue;
    }

    // Capped matching-statistics sweep, cold start at R0 = f + L.
    const std::int64_t r0 = f + len;
    iv = fm_->all_rows();
    std::uint32_t m = 0;
    std::int64_t x = r0;
    bool jumped = false;
    while (x-- > 0) {
      const std::uint8_t c = query.base(static_cast<std::uint32_t>(x));
      for (;;) {
        const index::SaInterval grown = fm_->extend(iv, c);
        if (!grown.empty()) {
          iv = grown;
          ++m;
          break;
        }
        if (m == 0) {
          iv = fm_->all_rows();
          break;
        }
        const std::uint32_t parent_depth =
            std::max(fm_->lcp_at(iv.lo), fm_->lcp_at(iv.hi));
        m = std::min(m - 1, parent_depth);
        iv = fm_->widen(iv, m);
        if (m == 0) iv = fm_->all_rows();
      }
      // m = min(MS[x], R0-x), so m >= L implies x <= f: re-confirming an
      // already-resolved start is impossible.
      if (m >= L) confirmed.push_back({iv, static_cast<std::uint32_t>(x)});
      if (x <= f && m < exit_depth) {
        // Below f with exact MS[x] = m: query[x .. x+m+1) is absent, which
        // kills every start in [x+m+1-L, x].
        f = x + static_cast<std::int64_t>(m) - len;
        jumped = true;
        break;
      }
    }
    if (!jumped) break;  // swept down to position 0: everything resolved
  }

  // Deferred resolution: widen each survivor to its depth-L interval and
  // locate the rows — the only lcp_at/locate work the lazy sweep does.
  std::size_t first = (lazy_skip_ && !confirmed.empty()) ? 1 : 0;
  for (std::size_t i = first; i < confirmed.size(); ++i) {
    emit_rows(confirmed[i].iv, query, confirmed[i].j, L, out, work);
  }
}

}  // namespace gm::mem
