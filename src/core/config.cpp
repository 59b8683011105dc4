#include "core/config.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/bits.h"
#include "util/cli.h"

namespace gm::core {

Config::Geometry Config::validated() const {
  if (min_length == 0) {
    throw std::invalid_argument("Config: min_length (L) must be >= 1");
  }
  if (seed_len == 0 || seed_len > 16) {
    throw std::invalid_argument("Config: seed_len (ls) must be in [1, 16]");
  }
  if (seed_len > min_length) {
    throw std::invalid_argument(
        "Config: seed_len must not exceed min_length (the paper drops ls "
        "from 13 to 10 for L = 10 for exactly this reason)");
  }
  if (!util::is_pow2(threads) || threads < 2) {
    throw std::invalid_argument(
        "Config: threads (tau) must be a power of two >= 2 (Algorithm 3 "
        "runs 2*log2(tau) - 1 combine iterations)");
  }
  if (tile_blocks == 0) {
    throw std::invalid_argument("Config: tile_blocks must be >= 1");
  }
  if (round_capacity == 0) {
    throw std::invalid_argument("Config: round_capacity must be >= 1");
  }
  if (output_capacity == 0) {
    throw std::invalid_argument("Config: output_capacity must be >= 1");
  }
  if (overlap_streams == 0) {
    throw std::invalid_argument("Config: overlap_streams must be >= 1");
  }

  Geometry g;
  const std::uint32_t max_step = min_length - seed_len + 1;  // Eq. 1
  g.step = step == 0 ? max_step : step;
  if (g.step == 0 || g.step > max_step) {
    throw std::invalid_argument(
        "Config: step (delta_s) violates Eq. 1: need 1 <= step <= L - ls + 1 = " +
        std::to_string(max_step) +
        " (a larger step can skip over MEMs of length exactly L)");
  }
  g.w = g.step;  // Section III-B2: w = Δs extracts every MEM exactly once
  // Tile geometry in 64 bits first: tau * Δs * n_block can exceed 32 bits
  // for large L, and a silently wrapped tile_len corrupts every tile Rect.
  const std::uint64_t block_width64 = std::uint64_t{threads} * g.w;
  const std::uint64_t tile_len64 = block_width64 * tile_blocks;
  if (tile_len64 > (std::uint64_t{1} << 31)) {
    throw std::invalid_argument(
        "Config: tile geometry overflows: tau * delta_s * n_block = " +
        std::to_string(tile_len64) + " exceeds 2^31 bases per tile");
  }
  g.block_width = static_cast<std::uint32_t>(block_width64);
  g.tile_len = static_cast<std::uint32_t>(tile_len64);
  return g;
}

std::string Config::describe() const {
  const Geometry g = validated();
  std::ostringstream os;
  os << "L=" << min_length << " ls=" << seed_len << " step=" << g.step
     << " tau=" << threads << " w=" << g.w << " lblock=" << g.block_width
     << " ltile=" << g.tile_len << " nblock=" << tile_blocks
     << " lb=" << (load_balance ? "on" : "off")
     << " combine=" << (combine ? "on" : "off") << " backend="
     << (backend == Backend::kSimt ? "simt" : "native");
  if (overlap_streams != 1) os << " streams=" << overlap_streams;
  if (overlap_shuffle_seed != 0) os << " shuffle=" << overlap_shuffle_seed;
  return os.str();
}

void describe_engine_flags(util::Cli& cli, const Config& defaults) {
  const auto dflt = [](std::uint32_t v) {
    return " (default " + std::to_string(v) + ")";
  };
  cli.describe("min-len", "minimum MEM length L" + dflt(defaults.min_length));
  cli.describe("seed-len", "seed length ls, <= L" + dflt(defaults.seed_len));
  cli.describe("step", "sampling step delta_s; 0 = Eq. 1 maximum L - ls + 1");
  cli.describe("tau", "threads per block tau" + dflt(defaults.threads) +
                          "; with --tile-blocks it fixes the tile length");
  cli.describe("tile-blocks",
               "blocks per tile n_block" + dflt(defaults.tile_blocks));
  cli.describe("overlap-streams",
               "simt backend: worker streams the tile pipeline runs on; "
               "above 1 they overlap (same MEMs, smaller modeled makespan; "
               "docs/PIPELINE.md)" + dflt(defaults.overlap_streams));
}

Config engine_flags(const util::Cli& cli, Config cfg) {
  const auto u32 = [&cli](const char* name, std::uint32_t fallback) {
    const std::int64_t v = cli.get_int(name, fallback);
    if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(std::string("--") + name + ": " +
                                  std::to_string(v) + " is out of range");
    }
    return static_cast<std::uint32_t>(v);
  };
  cfg.min_length = u32("min-len", cfg.min_length);
  cfg.seed_len = u32("seed-len", std::min(cfg.seed_len, cfg.min_length));
  cfg.step = u32("step", cfg.step);
  cfg.threads = u32("tau", cfg.threads);
  cfg.tile_blocks = u32("tile-blocks", cfg.tile_blocks);
  cfg.overlap_streams = u32("overlap-streams", cfg.overlap_streams);
  return cfg;
}

}  // namespace gm::core
