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
// One right-to-left sweep over the index, with one variable: the probe
// policy. A MEM of length >= L starts at j iff MS[j] >= L, so only the
// L-thresholded matching statistics matter, and any substring absent from
// the reference certifies a whole block of dead window starts at once (the
// thresholded-matching-statistics argument of arXiv 2403.02008 and
// 2311.04538). At each frontier — the highest unresolved window start —
// the policy either continues the matching-statistics recurrence or
// backward-searches a lambda-long probe there, whose absence kills
// L-lambda+1 starts; a present probe restarts the recurrence cold at the
// frontier plus L. Windows reaching depth L are located as soon as the
// recurrence confirms them. Three policies, bit-identical output:
//   - Probe::kWhenItPays (default; registry and CLI `slamem`, perfbench's
//     `slamem_s`): fixed once per find from L, lambda and |R|, never from
//     which input it is — it probes at every frontier when an absent probe
//     saves more FM operations than it costs, and never otherwise. On any
//     reference over ~110 bp it is the eager recurrence at L <= 33; it
//     probes from L 36 on below ~8 Mbp and from L 38 on below ~15 Gbp.
//   - Probe::kAlways (SlaMemFinder(true), FinderOptions::lazy_lcp, registry
//     and CLI `slamem-lazy`, serve's long-MEM route, perfbench's
//     `slamem_lazy_s`): probes at every frontier.
//   - Probe::kNever: the plain matching-statistics sweep, selected from
//     code only — the eager reference of tests and bench_longmem.
// See PERFORMANCE.md "Long-MEM mode" for the measured curve.
#pragma once

#include <memory>

#include "index/fm_index.h"
#include "mem/finder.h"

namespace gm::mem {

class SlaMemFinder final : public MemFinder {
 public:
  /// When the sweep backward-searches an absence probe (file comment).
  enum class Probe { kNever, kWhenItPays, kAlways };

  SlaMemFinder() = default;
  /// force_lazy pre-selects Probe::kAlways regardless of
  /// FinderOptions::lazy_lcp — the registry's "slamem-lazy" name.
  explicit SlaMemFinder(bool force_lazy)
      : policy_(force_lazy ? Probe::kAlways : Probe::kWhenItPays) {}
  /// Any policy; Probe::kNever is the eager reference.
  explicit SlaMemFinder(Probe policy) : policy_(policy) {}

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
  /// BWT character differs from the query base left of the window; the
  /// FmIndex::extend calls (backward steps, probes included) and parent
  /// jumps (lcp_at + widen) it made; the probes it issued and how many came
  /// back absent; and the window starts absence certificates killed — by
  /// absent probes and by the recurrence's own depth drops past the
  /// frontier. Exported as the mem.slamem.* counters while the obs
  /// registry is on (docs/OBSERVABILITY.md).
  struct Work {
    std::uint64_t rows_visited = 0;
    std::uint64_t rows_located = 0;
    std::uint64_t backward_steps = 0;
    std::uint64_t parent_jumps = 0;
    std::uint64_t probes = 0;
    std::uint64_t probes_absent = 0;
    std::uint64_t starts_killed = 0;
    bool operator==(const Work&) const = default;
  };
  Work last_find_work() const { return last_work_; }

  std::size_t index_bytes() const override { return fm_ ? fm_->bytes() : 0; }

  /// Fuzz-oracle hook: when on, the sweep skips emitting the first window
  /// it confirms — simulating a lost survivor so the differential oracle
  /// can prove it catches one (Fault::kLazySkipConfirmed).
  void inject_lazy_skip(bool on) { lazy_skip_ = on; }

  /// The policy find() runs: FinderOptions::lazy_lcp upgrades the default
  /// to Probe::kAlways.
  Probe policy() const {
    return policy_ == Probe::kWhenItPays && opt_.lazy_lcp ? Probe::kAlways
                                                          : policy_;
  }

  /// True when find() probes at every frontier (the "slamem-lazy" finder).
  bool lazy() const { return policy() == Probe::kAlways; }

 private:
  void sweep(const seq::Sequence& query, std::uint32_t L,
             std::vector<Mem>& out, Work& work) const;
  void emit_rows(index::SaInterval iv, const seq::Sequence& query,
                 std::uint32_t j, std::uint32_t L, std::vector<Mem>& out,
                 Work& work) const;

  const seq::Sequence* ref_ = nullptr;
  FinderOptions opt_;
  std::unique_ptr<index::FmIndex> fm_;
  Probe policy_ = Probe::kWhenItPays;
  bool lazy_skip_ = false;
  mutable double last_seconds_ = 0.0;
  mutable Work last_work_;
};

}  // namespace gm::mem
