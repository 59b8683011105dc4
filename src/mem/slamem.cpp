#include "mem/slamem.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "mem/clip.h"
#include "mem/common.h"
#include "obs/registry.h"
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
    sweep(query, min_length, out, work);
    clip_invalid_bases(*ref_, query, out, min_length);
    sort_unique(out);
  }
  last_seconds_ = timer.seconds();
  last_work_ = work;
  if (obs::enabled()) {
    obs::Metrics& metrics = obs::Registry::global().metrics();
    metrics.counter("mem.slamem.backward_steps", "FmIndex::extend calls")
        .add(work.backward_steps);
    metrics.counter("mem.slamem.parent_jumps", "lcp_at + widen parent jumps")
        .add(work.parent_jumps);
    metrics.counter("mem.slamem.probes", "absence probes issued")
        .add(work.probes);
    metrics.counter("mem.slamem.probes_absent", "probes found absent")
        .add(work.probes_absent);
    metrics.counter("mem.slamem.starts_killed",
                    "window starts killed by absence certificates")
        .add(work.starts_killed);
  }
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

namespace {

// Backward steps plus parent jumps per start of the eager recurrence where
// the depth stays low (the unrelated Table-II pair dmel_s/ecoli_s: 1.84
// steps + 0.84 jumps per start).
constexpr double kOpsPerStart = 2.7;

/// Whether the default policy probes, fixed once per find. An absent probe
/// saves the L-lambda+1 starts it kills, kOpsPerStart FM operations each,
/// and costs about log4 |R| + 2 backward steps: a random string is absent
/// once it outgrows ~log4 |R| characters.
bool probe_pays(std::int64_t len, std::int64_t lambda, std::size_t ref_size) {
  const double absent_steps =
      std::log2(static_cast<double>(ref_size) + 2) / 2 + 2;
  return static_cast<double>(len - lambda + 1) * kOpsPerStart > absent_steps;
}

}  // namespace

void SlaMemFinder::sweep(const seq::Sequence& query, std::uint32_t L,
                         std::vector<Mem>& out, Work& work) const {
  // Right-to-left over the frontier f, the highest unresolved window start.
  // The recurrence (Ohlebusch-style backward search) keeps (iv, m), the FM
  // row interval of the window query[x .. x+m), started cold at R0 = f+L:
  // prepending query[x-1] is one backward step, and when it fails the
  // window is shortened from the right by jumping to the parent LCP
  // interval — the operation slaMEM's sampled LCP array accelerates. From a
  // cold start the tracked depth is exactly min(MS[x], R0-x) (occurrence is
  // prefix-closed), so for every x <= f the threshold test m >= L is exact,
  // and m >= L implies x <= f: no start is confirmed twice. A window
  // reaching depth L is located at once (emit_rows).
  //
  // Absence certificates: any substring query[a .. b) absent from the
  // reference kills every start in [b-L, a]. Two kinds arise:
  //  - past f with exact depth m, query[x .. x+m+1) is absent, which kills
  //    [x+m+1-L, x-1] for free;
  //  - a probe backward-searches query[f .. f+lambda); absent, it kills
  //    [f+lambda-L, f] for at most lambda steps.
  // The recurrence leaves at a depth drop below lambda/2 only to probe, and
  // a present probe restarts it cold at f+L. The policy decides whether
  // the find probes at all: never (eager), always (lazy), or when an absent
  // probe saves more FM operations than it costs (probe_pays).
  const std::int64_t n = static_cast<std::int64_t>(query.size());
  const std::int64_t len = static_cast<std::int64_t>(L);
  if (n < len) return;  // no window of length L exists

  // Probe length: past the random-match noise floor (~log4 of the reference
  // length) so probes in alignment deserts actually come back absent, short
  // enough that a probe is much cheaper than the L-lambda starts it kills.
  const std::int64_t lambda = std::min<std::int64_t>(len - 1, 32);
  const Probe mode = policy();
  const bool probing =
      mode == Probe::kAlways ||
      (mode == Probe::kWhenItPays && probe_pays(len, lambda, ref_->size()));
  const std::uint32_t leave_below =
      probing ? static_cast<std::uint32_t>(lambda / 2) : 0;
  std::uint64_t steps = 0, jumps = 0, probes = 0, absent = 0, killed = 0;
  bool skip = lazy_skip_;

  std::int64_t f = n - len;
  bool probe = probing;
  while (f >= 0) {
    if (probe) {
      // Probe query[f .. f+lambda).
      index::SaInterval iv = fm_->all_rows();
      bool gone = false;
      for (std::int64_t p = f + lambda; p-- > f;) {
        ++steps;
        const index::SaInterval grown =
            fm_->extend(iv, query.base(static_cast<std::uint32_t>(p)));
        if (grown.empty()) {
          gone = true;
          break;
        }
        iv = grown;
      }
      ++probes;
      if (gone) {
        ++absent;
        killed += static_cast<std::uint64_t>(std::min(len - lambda + 1, f + 1));
        f = f + lambda - len - 1;  // dead: [f+lambda-L, f]
        continue;
      }
    }

    // The recurrence, cold at R0 = f + L.
    index::SaInterval iv = fm_->all_rows();
    std::uint32_t m = 0;
    std::int64_t x = f + len;
    probe = false;
    while (x-- > 0) {
      const std::uint8_t c = query.base(static_cast<std::uint32_t>(x));
      for (;;) {
        ++steps;
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
        ++jumps;
        const std::uint32_t parent_depth =
            std::max(fm_->lcp_at(iv.lo), fm_->lcp_at(iv.hi));
        m = std::min(m - 1, parent_depth);
        iv = fm_->widen(iv, m);
        if (m == 0) iv = fm_->all_rows();
      }
      if (m >= L) {
        if (skip) {
          skip = false;
        } else {
          emit_rows(iv, query, static_cast<std::uint32_t>(x), L, out, work);
        }
      }
      if (x <= f && m < leave_below) {
        // Exact MS[x] = m: query[x .. x+m+1) is absent.
        const std::int64_t next = x + static_cast<std::int64_t>(m) - len;
        killed += static_cast<std::uint64_t>(
            x - std::max<std::int64_t>(next + 1, 0));
        f = next;
        probe = true;
        break;
      }
    }
    if (!probe) break;  // swept down to position 0: everything resolved
  }
  work.backward_steps = steps;
  work.parent_jumps = jumps;
  work.probes = probes;
  work.probes_absent = absent;
  work.starts_killed = killed;
}

}  // namespace gm::mem
