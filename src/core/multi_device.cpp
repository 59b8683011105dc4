#include "core/multi_device.h"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.h"
#include "util/bits.h"
#include "util/timer.h"

namespace gm::core {

MultiDeviceResult run_multi_device(const Config& cfg, std::uint32_t devices,
                                   const seq::Sequence& ref,
                                   const seq::Sequence& query) {
  if (devices == 0) {
    throw std::invalid_argument("run_multi_device: need >= 1 device");
  }
  const Config::Geometry g = cfg.validated();
  if (cfg.backend != Backend::kSimt) {
    throw std::invalid_argument(
        "run_multi_device: only the SIMT backend is device-partitionable");
  }
  if (cfg.observe) obs::Registry::global().set_enabled(true);
  obs::Span fleet_span("pipeline/multi-device", "pipeline");
  fleet_span.attr("devices", std::uint64_t{devices});
  util::Timer wall;
  MultiDeviceResult result;
  if (ref.empty() || query.empty()) {
    result.combined.wall_seconds = wall.seconds();
    return result;
  }

  const Engine engine(cfg);
  const std::uint32_t n_r = static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(ref.size(), g.tile_len));
  const std::uint32_t rows_per_device = util::ceil_div(n_r, devices);

  std::vector<mem::Mem> reported;
  std::vector<mem::Mem> outtile_pieces;
  for (std::uint32_t d = 0; d < devices; ++d) {
    const std::uint32_t row_begin = d * rows_per_device;
    const std::uint32_t row_end = std::min(n_r, row_begin + rows_per_device);
    // The ordinal tags every span the device emits with its id, keeping the
    // fleet's modeled timelines on separate trace tracks.
    simt::Device dev(cfg.device, d);
    RunStats stats;
    if (row_begin < row_end) {
      obs::Span device_span("device/partition", "pipeline");
      device_span.attr("device", std::uint64_t{d});
      device_span.attr("row_begin", std::uint64_t{row_begin});
      device_span.attr("row_end", std::uint64_t{row_end});
      engine.run_simt_rows(dev, ref, query, row_begin, row_end, reported,
                           outtile_pieces, stats);
    }
    stats.tile_rows = row_end > row_begin ? row_end - row_begin : 0;
    stats.kernels_launched = dev.ledger().kernels_launched();
    stats.device_peak_bytes = dev.peak_bytes();
    result.per_device.push_back(stats);
    fold_device_stats(result.combined, stats);
  }
  result.combined.tile_cols = static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(query.size(), g.tile_len));

  // Matches crossing device partitions stitch in the host merge exactly
  // like cross-row matches.
  merge_out_tile(ref, query, cfg.min_length, std::move(outtile_pieces),
                 reported, result.combined);
  result.mems = std::move(reported);
  result.combined.mem_count = result.mems.size();
  result.combined.wall_seconds = wall.seconds();
  publish_run_stats(result.combined);
  return result;
}

}  // namespace gm::core
