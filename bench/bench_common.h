// Shared harness for the paper-reproduction benchmarks: the nine
// reference/query/L configurations of Tables III & IV (scaled per
// DESIGN.md), tool construction, uniform reporting, and the self-relative
// ratio rigs' row type, timer and JSON report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "mem/finder.h"
#include "seq/synthetic.h"
#include "util/table.h"
#include "util/timer.h"

namespace gm::bench {

/// One row-group of the paper's Tables III/IV.
struct PaperConfig {
  std::string dataset;     ///< preset name
  std::uint32_t min_len;   ///< L
  std::uint32_t seed_len;  ///< GPUMEM ℓs, scaled from the paper's 13/10
                           ///< to keep 4^ℓs proportional to the scaled
                           ///< reference length (see EXPERIMENTS.md)
  double paper_gpumem_index;    ///< paper Table III GPUMEM seconds
  double paper_gpumem_extract;  ///< paper Table IV GPUMEM seconds
  double paper_best_cpu_extract;///< paper Table IV best CPU tool seconds
};

/// The nine configurations, in the paper's table order.
std::vector<PaperConfig> paper_configs();

/// Builds (and caches across calls within one process) the dataset pair for
/// a config at the given additional scale divisor.
const seq::DatasetPair& dataset_for(const std::string& preset,
                                    std::size_t scale);

/// GPUMEM configuration used across benchmarks for a paper config.
/// `ref_len` sizes the tiling so a run sweeps roughly as many tile rows as
/// the paper's geometry did (ℓtile = 1K·τ·Δs over ~200 Mbp ≈ 20 rows),
/// keeping the redundant-scan factor — and thus the GPU-vs-CPU time ratio —
/// comparable at reduced scale.
core::Config gpumem_config(const PaperConfig& pc, core::Backend backend,
                           std::size_t ref_len = 0);

/// Writes the table to stdout and to `<name>.csv` in the working directory.
/// When observability is on (see `observability_from_args`), also dumps the
/// machine-readable run report next to the CSV: `<name>.metrics.json` and
/// `<name>.trace.json` (Chrome-trace format, loadable in ui.perfetto.dev).
void emit(const std::string& name, const util::Table& table);

/// Default scale divisor for the bench binaries (presets are already ~1/64
/// of the paper's chromosomes; this divides further so a full run finishes
/// in minutes on one core). Overridable via --scale or GPUMEM_BENCH_SCALE.
std::size_t default_scale(int argc, char** argv);

/// Enables the global obs::Registry when `--obs` is passed or GPUMEM_OBS is
/// set to a truthy value; returns whether it is enabled. Every bench calls
/// this (via default_scale) so any paper table can be re-run with a full
/// trace without recompiling.
bool observability_from_args(int argc, char** argv);

/// One scenario of a self-relative ratio rig (bench_host_wall,
/// bench_index_io, bench_copmem, bench_longmem): the slow and the fast side
/// of one comparison, timed in the same process on the same data, so their
/// ratio is stable across machines where absolute wall time is not.
struct RatioRow {
  std::string name;
  double cold_ns = 0.0;      ///< the slow side of the ratio
  double hot_ns = 0.0;       ///< the fast side
  double min_speedup = 0.0;  ///< 0 = informational (not gated)
  std::uint64_t mems = 0;    ///< deterministic output count (identity check)

  double speedup() const { return cold_ns / hot_ns; }
};

/// Best-of-`reps` wall time of fn() in nanoseconds, after one untimed
/// warm-up.
template <typename Fn>
double time_best_ns(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    best = std::min(best, t.seconds() * 1e9);
  }
  return best;
}

/// Writes `rows` to `path` as a `schema` document for
/// scripts/bench_check.py and prints each row against its floor. Returns
/// the rig's exit code: 1 when a gated row misses its floor or `identical`
/// (the caller's MEM bit-identity check) is false, else 0.
int finish_ratio_rig(const std::string& path, const std::string& schema,
                     const std::vector<RatioRow>& rows, bool identical);

}  // namespace gm::bench
