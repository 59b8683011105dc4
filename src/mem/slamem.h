// slaMEM-class finder (Fernandes & Freitas 2013, paper reference [8]):
// FM-index backward search with matching statistics maintained across
// consecutive query positions via LCP-driven parent-interval widening (the
// "sampled LCP array" idea), and candidate rows located through the
// sampled suffix array. Only left-maximal rows are located: a row of the
// depth-L interval whose BWT character equals the query base left of the
// window, ref[r-1] == query[j-1], extends one further left and cannot start
// a MEM, so one bitplane read (FmIndex::bwt_at) drops it before its LF walk.
// On inputs without invalid bases every located row then is a MEM
// (last_find_work() counts the rows visited and the rows located).
//
// Two sweep modes over the same index:
//   - eager (default): full matching statistics at every query position —
//     every parent jump pays lcp_at/widen even when the window can never
//     reach length L.
//   - lazy (FinderOptions::lazy_lcp): long-MEM mode in the spirit of the
//     lazy/thresholded matching-statistics line of work (arXiv 2403.02008,
//     2311.04538). Only the L-thresholded matching statistics are needed,
//     and any substring absent from the reference certifies a whole block
//     of dead window starts, so the sweep alternates short absence probes
//     (jumping up to L-probe starts at a time) with bounded eager bursts
//     where probes come back present; lcp_at/widen/locate are
//     batch-deferred to windows already proven to reach depth >= L.
//     Output is bit-identical to eager; cost becomes sublinear in |query|
//     as L grows (see PERFORMANCE.md "Long-MEM mode").
#pragma once

#include <memory>

#include "index/fm_index.h"
#include "mem/finder.h"

namespace gm::mem {

class SlaMemFinder final : public MemFinder {
 public:
  SlaMemFinder() = default;
  /// force_lazy pre-selects the lazy sweep regardless of
  /// FinderOptions::lazy_lcp — the registry's "slamem-lazy" name.
  explicit SlaMemFinder(bool force_lazy) : force_lazy_(force_lazy) {}

  std::string name() const override {
    return lazy() ? "slamem-lazy" : "slamem";
  }

  void build_index(const seq::Sequence& ref, const FinderOptions& opt) override;

  /// Store-artifact load path: adopts a prebuilt FM index (the artifact's
  /// kFmIndex section) instead of rebuilding it over `ref`. `ref` must be
  /// the sequence the index was built over.
  void adopt_index(const seq::Sequence& ref, const FinderOptions& opt,
                   index::FmIndex fm);

  std::vector<Mem> find(const seq::Sequence& query) const override;

  /// find() at an explicit minimum length, independent of the build-time
  /// FinderOptions::min_length — also below it. The FM index is
  /// L-independent, so one resident finder answers any per-request L — the
  /// serve path's long-MEM route (docs/SERVING.md). Throws
  /// std::invalid_argument for L == 0.
  std::vector<Mem> find_at(const seq::Sequence& query,
                           std::uint32_t min_length) const override;

  double last_find_modeled_seconds() const override { return last_seconds_; }

  /// Exact work of the last find: rows of the depth-L intervals the sweep
  /// visited, and the rows it passed to FmIndex::locate — only those whose
  /// BWT character differs from the query base left of the window.
  struct Work {
    std::uint64_t rows_visited = 0;
    std::uint64_t rows_located = 0;
  };
  Work last_find_work() const { return last_work_; }

  std::size_t index_bytes() const override { return fm_ ? fm_->bytes() : 0; }

  /// Fuzz-oracle hook: when on, the lazy sweep drops its first confirmed
  /// window before the deferred widen/locate pass — simulating a skipped
  /// survivor so the differential oracle can prove it catches one
  /// (Fault::kLazySkipConfirmed).
  void inject_lazy_skip(bool on) { lazy_skip_ = on; }

  /// True when find() runs the lazy long-MEM sweep.
  bool lazy() const { return force_lazy_ || opt_.lazy_lcp; }

 private:
  void find_eager(const seq::Sequence& query, std::uint32_t L,
                  std::vector<Mem>& out, Work& work) const;
  void find_lazy(const seq::Sequence& query, std::uint32_t L,
                 std::vector<Mem>& out, Work& work) const;
  void emit_rows(index::SaInterval iv, const seq::Sequence& query,
                 std::uint32_t j, std::uint32_t L, std::vector<Mem>& out,
                 Work& work) const;

  const seq::Sequence* ref_ = nullptr;
  FinderOptions opt_;
  std::unique_ptr<index::FmIndex> fm_;
  bool force_lazy_ = false;
  bool lazy_skip_ = false;
  mutable double last_seconds_ = 0.0;
  mutable Work last_work_;
};

}  // namespace gm::mem
