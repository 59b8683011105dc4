// Long-MEM L-sweep rig: measures the slaMEM sweep probing at every
// frontier (the lazy finder, docs/PERFORMANCE.md "Long-MEM mode") against
// the never-probing eager reference on the same FM index, and emits
// BENCH_longmem.json (schema gpumem-bench-longmem-v1) for
// scripts/bench_check.py.
//
// The scenario grid extends bench_fig5_minlen's minimum-length study: every
// distinct Table-II dataset pair crossed with a geometric L ladder
// {20, 40, 80, 160, 320}. Per scenario, one row "<dataset> L<minlen>":
// cold_ns is the eager sweep, hot_ns the lazy sweep, both timed best-of-N
// in the same process over one shared FM index (index construction is
// excluded — every policy uses the identical artifact). The default policy
// (probe where it pays) is timed the same way and printed beside them, in
// the table and longmem_sweep.csv only.
//
// Gating: the lazy sweep's win comes from absence certificates (a short
// probe or a depth drop proves a whole block of window starts dead), so it
// scales with alignment-desert density. The 2x floor is carried at the top
// of the ladder on the diverged pair (chr1m_s/chr2h_s, ~6% divergence) and
// the unrelated pair (dmel_s/ecoli_s); the high-identity pairs
// (chrXc_s/chrXh_s, chrXII_s/chrI_s) and all low rungs are informational —
// at low L or near-identity the sweep degrades to eager by design. The
// binary additionally self-gates that all three policies extract
// bit-identical MEM sets in every scenario. Raw nanoseconds are recorded
// for trend inspection but never gated.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "index/fm_index.h"
#include "mem/slamem.h"
#include "seq/synthetic.h"
#include "util/cli.h"
#include "util/table.h"

using namespace gm;

namespace {

/// The floor of the top rung on the gated pairs.
/// No flag: bench_check.py fails any floor that differs from the
/// committed baseline's per-row min_speedup.
constexpr double kFloor = 2.0;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "BENCH_longmem.json");
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const std::uint32_t ladder[] = {20, 40, 80, 160, 320};
  const std::uint32_t top = ladder[std::size(ladder) - 1];

  std::vector<bench::RatioRow> rows;
  util::Table sweep({"dataset", "L", "eager ms", "lazy ms", "speedup",
                     "default ms", "default/best", "#MEMs"});
  bool identical = true;

  for (const std::string& preset : seq::dataset_presets()) {
    const seq::DatasetPair& data = bench::dataset_for(preset, scale);
    // The diverged and unrelated pairs carry the floor at the top rung; the
    // high-identity pairs stay informational (few absence certificates).
    const bool gated_pair =
        preset == "chr1m_s/chr2h_s" || preset == "dmel_s/ecoli_s";

    // One FM index shared by every policy: the comparison is sweep vs
    // sweep, not index construction.
    index::FmIndex fm(data.reference);
    mem::FinderOptions opt;
    opt.min_length = ladder[0];
    mem::SlaMemFinder eager(mem::SlaMemFinder::Probe::kNever);
    eager.adopt_index(data.reference, opt, fm);
    mem::SlaMemFinder sweep_default;
    sweep_default.adopt_index(data.reference, opt, fm);
    mem::SlaMemFinder lazy(/*force_lazy=*/true);
    lazy.adopt_index(data.reference, opt, std::move(fm));

    for (const std::uint32_t L : ladder) {
      const std::string name = preset + " L" + std::to_string(L);
      std::vector<mem::Mem> eager_mems, lazy_mems, default_mems;
      const double cold_ns = bench::time_best_ns(
          reps, [&] { eager_mems = eager.find_at(data.query, L); });
      const double hot_ns = bench::time_best_ns(
          reps, [&] { lazy_mems = lazy.find_at(data.query, L); });
      const double default_ns = bench::time_best_ns(
          reps, [&] { default_mems = sweep_default.find_at(data.query, L); });
      if (eager_mems != lazy_mems || eager_mems != default_mems) {
        identical = false;
        std::cerr << "!! " << name << ": MEM sets diverge (eager "
                  << eager_mems.size() << ", lazy " << lazy_mems.size()
                  << ", default " << default_mems.size() << ")\n";
      }
      const double row_floor = (gated_pair && L == top) ? kFloor : 0.0;
      rows.push_back({name, cold_ns, hot_ns, row_floor, eager_mems.size()});
      sweep.add_row({preset, util::Table::num(std::uint64_t{L}),
                     util::Table::num(cold_ns / 1e6, 3),
                     util::Table::num(hot_ns / 1e6, 3),
                     util::Table::num(cold_ns / hot_ns, 2),
                     util::Table::num(default_ns / 1e6, 3),
                     util::Table::num(
                         default_ns / std::min(cold_ns, hot_ns), 2),
                     util::Table::num(std::uint64_t{eager_mems.size()})});
    }
  }

  bench::emit("longmem_sweep", sweep);
  return bench::finish_ratio_rig(out, "gpumem-bench-longmem-v1", rows,
                                 identical);
}
