// The device side of the GPUMEM pipeline (paper Fig. 1) as one prepared
// object: a pool of simulated GPUs, each owning a contiguous block of the
// reference's tile rows. A run builds (or acquires) each device's row
// indexes, matches every tile in those rows, and merges the combined
// out-tile pieces on the host (Section III-C2).
//
// One device is Engine::run's SIMT backend. Several devices partition the
// rows the way the paper's reference [1] (Abouelhoda & Seif, "Efficient
// distributed computation of maximal exact matches") distributes MEM
// extraction: cross-partition matches stitch in the same host merge that
// cross-row matches need, so the MEM set is identical for any device count.
// A persistent pool with a RowIndexSource per device is the serve layer's
// warm path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "simt/device.h"

namespace gm::core {

class DevicePool {
 public:
  /// Creates `devices` simulated cards of `cfg.device` (ordinals 0..n-1)
  /// and splits the tile rows of `ref` row-contiguously across them. `ref`
  /// must outlive the pool. Throws std::invalid_argument for zero devices
  /// or a non-SIMT config.
  DevicePool(Config cfg, std::uint32_t devices, const seq::Sequence& ref);
  /// Adopting finders hold the pool's address.
  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(members_.size());
  }
  simt::Device& device(std::uint32_t d) { return *members_.at(d).dev; }
  const Config& config() const noexcept { return engine_.config(); }
  const seq::Sequence& reference() const noexcept { return *ref_; }

  /// Serves device `d`'s row indexes from `source` instead of building them
  /// per run; nullptr detaches. The caller owns the source, which must be
  /// bound to device(d) and destroyed before the pool.
  void attach(std::uint32_t d, RowIndexSource* source) {
    members_.at(d).source = source;
  }

  /// Extracts every MEM between the reference and `query`. Devices persist
  /// across runs, so all ledger-derived stats are this run's deltas.
  /// Modeled times are the slowest device's (devices run concurrently);
  /// index_cache_hit means every device served every row from its source.
  /// `per_device`, when given, receives one RunStats per device.
  Result run(const seq::Sequence& query,
             std::vector<RunStats>* per_device = nullptr);

 private:
  struct Member {
    std::unique_ptr<simt::Device> dev;
    RowIndexSource* source = nullptr;
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = 0;
  };

  Engine engine_;
  const seq::Sequence* ref_;
  std::vector<Member> members_;
};

}  // namespace gm::core
