#include "core/device_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/bits.h"
#include "util/timer.h"

namespace gm::core {

DevicePool::DevicePool(Config cfg, std::uint32_t devices,
                       const seq::Sequence& ref)
    : engine_(std::move(cfg)), ref_(&ref) {
  if (devices == 0) {
    throw std::invalid_argument("DevicePool: need >= 1 device");
  }
  if (config().backend != Backend::kSimt) {
    throw std::invalid_argument(
        "DevicePool: only the SIMT backend runs on devices");
  }
  const std::uint32_t rows =
      ref.empty() ? 0
                  : static_cast<std::uint32_t>(util::ceil_div<std::size_t>(
                        ref.size(), config().validated().tile_len));
  const std::uint32_t rows_per_device = util::ceil_div(rows, devices);
  members_.resize(devices);
  for (std::uint32_t d = 0; d < devices; ++d) {
    // The ordinal tags every span the device emits with its id, keeping the
    // pool's modeled timelines on separate trace tracks.
    members_[d].dev = std::make_unique<simt::Device>(config().device, d);
    members_[d].row_begin = std::min(rows, d * rows_per_device);
    members_[d].row_end = std::min(rows, members_[d].row_begin + rows_per_device);
  }
}

Result DevicePool::run(const seq::Sequence& query,
                       std::vector<RunStats>* per_device) {
  const Config& cfg = config();
  if (cfg.observe) obs::Registry::global().set_enabled(true);
  obs::Span run_span("pipeline/run", "pipeline");
  run_span.attr("backend", std::string("simt"));
  run_span.attr("devices", std::uint64_t{size()});
  run_span.attr("ref_bp", std::uint64_t{ref_->size()});
  run_span.attr("query_bp", std::uint64_t{query.size()});
  util::Timer wall;
  Result result;
  RunStats& stats = result.stats;
  const bool work = !ref_->empty() && !query.empty();

  std::vector<mem::Mem> reported;        // in-block + in-tile MEMs
  std::vector<mem::Mem> outtile_pieces;  // stitched at the end
  bool all_rows_warm = work;
  for (Member& m : members_) {
    simt::Device& dev = *m.dev;
    const simt::PerfLedger::Snapshot base = dev.ledger().snapshot();
    // The peak watermark restarts at whatever is resident (cached rows).
    dev.reset_peak();
    RunStats ds;
    if (work && m.row_begin < m.row_end) {
      obs::Span device_span("device/partition", "pipeline");
      device_span.attr("device", std::uint64_t{dev.ordinal()});
      device_span.attr("row_begin", std::uint64_t{m.row_begin});
      device_span.attr("row_end", std::uint64_t{m.row_end});
      engine_.run_simt_rows(dev, *ref_, query, m.row_begin, m.row_end,
                            reported, outtile_pieces, ds, m.source);
      ds.tile_rows = m.row_end - m.row_begin;
      all_rows_warm = all_rows_warm && ds.index_cache_hit;
    }
    ds.kernels_launched = dev.ledger().kernels_launched() - base.kernels;
    ds.device_peak_bytes = dev.peak_bytes();
    for (const auto& [label, ls] : dev.ledger().breakdown_since(base)) {
      ds.kernel_breakdown.push_back({label, ls.seconds, ls.launches});
    }
    fold_device_stats(stats, ds);
    if (per_device != nullptr) per_device->push_back(std::move(ds));
  }
  stats.index_cache_hit = all_rows_warm;
  if (work) {
    stats.tile_cols = static_cast<std::uint32_t>(util::ceil_div<std::size_t>(
        query.size(), cfg.validated().tile_len));
  }

  // Matches crossing row and device partitions stitch here, over the union
  // of every device's out-tile pieces.
  merge_out_tile(*ref_, query, cfg.min_length, std::move(outtile_pieces),
                 reported, stats);
  result.mems = std::move(reported);
  stats.mem_count = result.mems.size();
  stats.trace_id = obs::current_trace().trace_id;
  stats.wall_seconds = wall.seconds();
  publish_run_stats(stats);
  return result;
}

}  // namespace gm::core
