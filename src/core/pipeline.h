// GPUMEM end-to-end pipeline (paper Fig. 1): tile-row partial indexing,
// per-tile block matching, tile-level stitching, and the final host merge of
// out-tile triplets. Two backends share this orchestration: the simulated
// device (modeled GPU time) and a native host implementation (wall time).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "index/kmer_index.h"
#include "mem/mem.h"
#include "seq/sequence.h"
#include "simt/device.h"

namespace gm::core {

struct RunStats {
  /// Index-generation time (paper Table III): modeled device seconds for
  /// the SIMT backend (all Algorithm 1 kernel launches + memsets), measured
  /// wall seconds for the native backend.
  double index_seconds = 0.0;
  /// MEM-extraction time (paper Table IV): everything else, including the
  /// final host merge (the paper's Section III-C2 host stage).
  double match_seconds = 0.0;
  /// Portion of match_seconds spent in the *measured* host out-tile merge.
  /// At paper scale this stage is a negligible fraction; at reduced scale on
  /// this 1-core container it can dominate, so device-side experiments
  /// (Fig. 7, ablations) subtract it. See EXPERIMENTS.md.
  double host_stitch_seconds = 0.0;

  double device_match_seconds() const {
    return match_seconds - host_stitch_seconds;
  }
  /// Host wall-clock for the entire run (simulation cost; not a result).
  double wall_seconds = 0.0;

  /// Modeled device seconds from first to last device operation: the
  /// StreamScheduler's makespan over the run's streams. With one worker
  /// stream (the default) every op runs back to back, so this is the
  /// serial timeline; with W > 1 it is smaller than the ledger delta by
  /// exactly the overlap won (copies and index builds hidden behind match
  /// kernels, concurrent tile kernels backfilling SM slots).
  /// index_seconds/match_seconds stay serial-style sums at every W, so
  /// runs at different W are directly comparable (they can deviate
  /// marginally: output capacities adapt per stream, not globally, so
  /// retry/memset costs land on different tiles).
  double modeled_makespan_seconds = 0.0;

  std::uint64_t mem_count = 0;
  std::uint32_t tile_rows = 0;
  std::uint32_t tile_cols = 0;
  std::uint64_t inblock_mems = 0;    ///< reported at block level
  std::uint64_t intile_mems = 0;     ///< reported at tile level
  std::uint64_t outtile_pieces = 0;  ///< stitched on the host
  std::uint64_t overflow_rounds = 0; ///< rounds processed by host fallback
  std::uint64_t kernels_launched = 0;
  std::size_t device_peak_bytes = 0;
  /// True when every tile-row index this run needed came ready-made — from a
  /// RowIndexSource serving warm entries (SIMT) or a prebuilt NativeIndex —
  /// so no Algorithm 1 / index-build work ran. The serve layer's cache
  /// effectiveness signal.
  bool index_cache_hit = false;

  /// Owning request's trace id when this run was executed by the serve
  /// layer (0 for standalone Engine::run calls). Gives per-request phase
  /// attribution: the index/match/stitch seconds above, keyed by request.
  std::uint64_t trace_id = 0;

  /// One kernel label's modeled totals (SIMT backend).
  struct KernelStat {
    std::string label;
    double seconds = 0.0;
    std::uint64_t launches = 0;
  };
  /// Per-label kernel totals, descending by modeled seconds.
  std::vector<KernelStat> kernel_breakdown;
};

/// Mirrors every RunStats field into the global metrics registry under the
/// "run." / "kernel.<label>." names documented in docs/OBSERVABILITY.md.
/// No-op when observability is disabled. DevicePool::run and the native
/// engine call it once at the end of each run; the serve layer calls it for
/// requests a host route answers.
void publish_run_stats(const RunStats& stats);

/// The final host stage (paper Section III-C2): finalizes the out-tile
/// `pieces` against the full sequences, appends them to `reported`, then
/// clips invalid bases and sorts/dedupes `reported`. Times the stage into
/// stats.host_stitch_seconds (also added to match_seconds), counts
/// stats.outtile_pieces, and records a "stitch/host-merge" wall span.
void merge_out_tile(const seq::Sequence& ref, const seq::Sequence& query,
                    std::uint32_t min_len, std::vector<mem::Mem> pieces,
                    std::vector<mem::Mem>& reported, RunStats& stats);

/// Folds one pool member's stats into the pool's. Members run
/// concurrently, so modeled seconds and peak bytes take the slowest or
/// largest member; tile rows, MEM counters, launches and the per-label
/// kernel totals add up.
void fold_device_stats(RunStats& pool, const RunStats& device);

struct Result {
  std::vector<mem::Mem> mems;  ///< canonical order, no duplicates
  RunStats stats;
};

struct DeviceIndex;  // core/index_kernels.h

/// Supplies ready-to-use per-tile-row (ptrs, locs) indexes to the SIMT
/// pipeline, replacing the per-run Algorithm 1 builds. The index depends
/// only on the reference row and the (seed_len, step, tile_len) geometry, so
/// a source can build each row once and serve it to every subsequent run —
/// the serve layer's DeviceRowIndexCache is the canonical implementation.
class RowIndexSource {
 public:
  virtual ~RowIndexSource() = default;

  /// Returns the index for tile row `row` of `ref`, resident on `dev`.
  /// Implementations build on miss (charging `dev`'s ledger the modeled
  /// build time) and serve later calls for free; `hit` reports which
  /// happened. The returned reference stays valid until the source is
  /// cleared or destroyed.
  virtual DeviceIndex& acquire(simt::Device& dev, const seq::Sequence& ref,
                               std::uint32_t row, bool& hit) = 0;
};

class Engine {
 public:
  explicit Engine(Config cfg) : cfg_(std::move(cfg)) { (void)cfg_.validated(); }

  const Config& config() const noexcept { return cfg_; }

  /// Extracts all MEMs of length >= cfg.min_length between ref and query.
  /// The SIMT backend runs a transient one-device DevicePool.
  Result run(const seq::Sequence& ref, const seq::Sequence& query) const;

  /// Pre-built per-tile-row indexes for the native backend, enabling the
  /// build-once / query-many workflow of the CPU tools (e.g. mapping many
  /// reads against one reference — see examples/read_mapper.cpp).
  struct NativeIndex {
    std::vector<index::KmerIndex> rows;  ///< one per tile row
    double build_seconds = 0.0;
  };

  /// Builds the native row indexes once (wall-timed).
  NativeIndex build_native_index(const seq::Sequence& ref) const;

  /// run() with the native backend, reusing `prebuilt` (which must have
  /// been produced by build_native_index with this exact config and ref).
  /// RunStats::index_seconds reports 0 — the cost lives in `prebuilt`.
  Result run_native_prebuilt(const seq::Sequence& ref,
                             const seq::Sequence& query,
                             const NativeIndex& prebuilt) const;

 private:
  friend class DevicePool;

  /// Device-level work unit (paper Fig. 1): processes tile rows
  /// [row_begin, row_end) on `dev` — uploads the sequences, builds each
  /// row's partial index, matches every tile of the row — and appends
  /// reported MEMs and out-tile pieces. The work is enqueued on a copy
  /// stream plus cfg.overlap_streams worker streams (tile columns col % W)
  /// and drained on the calling thread; W = 1 is the serial timeline.
  /// Only DevicePool (core/device_pool.h) calls it, per device, before its
  /// one host merge. When `index_source` is given, row indexes are acquired
  /// from it instead of built, and `stats.index_cache_hit` reports whether
  /// every row was served warm.
  void run_simt_rows(simt::Device& dev, const seq::Sequence& ref,
                     const seq::Sequence& query, std::uint32_t row_begin,
                     std::uint32_t row_end, std::vector<mem::Mem>& reported,
                     std::vector<mem::Mem>& outtile_pieces, RunStats& stats,
                     RowIndexSource* index_source) const;
  Result run_native(const seq::Sequence& ref, const seq::Sequence& query,
                    const NativeIndex* prebuilt = nullptr) const;

  Config cfg_;
};

}  // namespace gm::core
