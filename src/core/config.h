// GPUMEM configuration: the paper's parameters (Table I) plus engineering
// knobs, with Eq. 1 enforced at validation time.
#pragma once

#include <cstdint>
#include <string>

#include "simt/device.h"

namespace gm::util {
class Cli;
}

namespace gm::core {

enum class Backend {
  kSimt,    ///< kernels on the simulated device; modeled GPU time
  kNative,  ///< same tiling pipeline on host threads; measured wall time
};

struct Config {
  // --- problem parameters (paper Table I) ---------------------------------
  std::uint32_t min_length = 20;  ///< L
  std::uint32_t seed_len = 10;    ///< ℓs (<= 16 so a seed packs in 32 bits)

  /// Δs. 0 = auto: the maximum Eq. 1 allows, Δs = L − ℓs + 1 ("we use the
  /// maximum possible value", Section III-A).
  std::uint32_t step = 0;

  // --- device geometry ------------------------------------------------------
  std::uint32_t threads = 256;     ///< τ, threads per block (power of two)
  std::uint32_t tile_blocks = 64;  ///< n_block, blocks per tile

  // --- feature toggles (paper experiments & ablations) ---------------------
  bool load_balance = true;  ///< Algorithm 2 on/off (paper Fig. 7)
  bool combine = true;       ///< Algorithm 3 on/off (ablation; correctness is
                             ///< preserved either way via final dedupe)

  Backend backend = Backend::kSimt;
  simt::DeviceSpec device = simt::DeviceSpec::k20c();

  // --- streams (SIMT backend) ---------------------------------------------
  /// Worker streams W (>= 1) the tile pipeline runs on. Tile columns are
  /// distributed col % W, so the mapping — and therefore every buffer
  /// capacity retry — is independent of scheduling order. 1 (default) is
  /// the serial timeline; W > 1 double-buffers the row indexes so row k's
  /// match kernels overlap row k+1's index build and the copies. MEM
  /// results are bit-identical at every W; only the modeled makespan
  /// changes. See docs/PIPELINE.md.
  std::uint32_t overlap_streams = 1;
  /// Nonzero: seed for the scheduler's randomized drain-order shuffle. The
  /// determinism tests sweep this to prove results don't depend on
  /// interleaving; 0 (default) = deterministic earliest-ready order.
  std::uint64_t overlap_shuffle_seed = 0;

  /// Turns on the process-global observability registry (obs::Registry) at
  /// run start: stage/kernel/transfer spans and run metrics are recorded
  /// for export. Leaving it false never disables a registry the front-end
  /// enabled itself.
  bool observe = false;

  // --- capacities -----------------------------------------------------------
  /// Per-block scratch capacity in triplets for one round. Rounds whose
  /// total load exceeds it fall back to the host path (rare; counted in
  /// RunStats so experiments can report it). A tile whose row index is too
  /// small to load a round this much gets scratch for its largest load.
  std::uint32_t round_capacity = 16384;
  /// Initial sizes of the device output lists; the pipeline retries a tile
  /// with doubled buffers on overflow. A tile that cannot emit this many
  /// triplets gets lists sized to its largest possible output.
  std::uint32_t output_capacity = 1 << 16;

  struct Geometry {
    std::uint32_t step = 0;         ///< Δs (resolved)
    std::uint32_t w = 0;            ///< query locations per thread = Δs
    std::uint32_t block_width = 0;  ///< ℓ_block = τ · w
    std::uint32_t tile_len = 0;     ///< ℓ_tile = n_block · ℓ_block
  };

  /// Resolves derived quantities; throws std::invalid_argument when the
  /// configuration violates Eq. 1 (Δs <= L − ℓs + 1) or basic constraints.
  Geometry validated() const;

  std::string describe() const;
};

/// The engine flags every binary reads, one name each: --min-len,
/// --seed-len, --step, --tau, --tile-blocks, --overlap-streams.
/// describe_engine_flags documents them for --help with `defaults`;
/// engine_flags reads them over `defaults` (an unset --seed-len is
/// min(defaults.seed_len, L)) and throws std::invalid_argument naming a
/// flag whose value is not a uint32.
void describe_engine_flags(util::Cli& cli, const Config& defaults);
Config engine_flags(const util::Cli& cli, Config defaults);

}  // namespace gm::core
