#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>

#include "obs/registry.h"
#include "util/cli.h"

namespace gm::bench {

std::vector<PaperConfig> paper_configs() {
  // Paper reference numbers: Table III (GPUMEM index) and Table IV (GPUMEM
  // extraction; best CPU tool = essaMEM tau=8 except where noted).
  return {
      {"chr1m_s/chr2h_s", 100, 11, 1.41, 5.38, 10.14},
      {"chr1m_s/chr2h_s", 50, 11, 2.51, 9.24, 34.89},
      {"chr1m_s/chr2h_s", 30, 11, 5.58, 20.19, 32.00},
      {"chrXc_s/chrXh_s", 50, 11, 1.74, 5.86, 24.91},
      {"chrXc_s/chrXh_s", 30, 11, 3.11, 11.22, 25.58},
      {"dmel_s/ecoli_s", 20, 11, 1.20, 0.08, 0.32},
      {"dmel_s/ecoli_s", 15, 11, 3.19, 0.24, 0.71},
      {"chrXII_s/chrI_s", 20, 11, 0.38, 0.01, 0.01},
      {"chrXII_s/chrI_s", 10, 8, 0.05, 0.02, 0.08},
  };
}

const seq::DatasetPair& dataset_for(const std::string& preset,
                                    std::size_t scale) {
  static std::map<std::pair<std::string, std::size_t>, seq::DatasetPair> cache;
  auto key = std::make_pair(preset, scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    std::cerr << "[bench] generating dataset " << preset << " (scale 1/"
              << scale << ") ...\n";
    it = cache.emplace(key, seq::make_dataset(preset, 42, scale)).first;
  }
  return it->second;
}

core::Config gpumem_config(const PaperConfig& pc, core::Backend backend,
                           std::size_t ref_len) {
  core::Config cfg;
  cfg.min_length = pc.min_len;
  cfg.seed_len = pc.seed_len;
  cfg.threads = 256;
  cfg.backend = backend;
  // Fixed blocks-per-tile, like the paper's "1K × τ × Δs" tile shape: the
  // tile edge is proportional to Δs, so smaller L (smaller Δs) means more
  // tile rows and more per-row index builds — the source of Table III's
  // L-trend. One full device wave (13 SMs × 8 blocks) per tile.
  (void)ref_len;
  cfg.tile_blocks = 104;
  return cfg;
}

void emit(const std::string& name, const util::Table& table) {
  std::cout << "== " << name << " ==\n" << table.to_string() << '\n';
  const std::string path = name + ".csv";
  if (table.write_csv(path)) {
    std::cout << "(csv written to " << path << ")\n\n";
  }
  if (obs::Registry::global().enabled()) {
    const std::string metrics_path = name + ".metrics.json";
    const std::string trace_path = name + ".trace.json";
    std::ofstream metrics(metrics_path);
    obs::Registry::global().metrics().write_json(metrics);
    std::ofstream trace(trace_path);
    obs::Registry::global().trace().write_chrome_json(trace);
    std::cout << "(run report: " << metrics_path << ", " << trace_path
              << " [" << obs::Registry::global().trace().size()
              << " spans])\n\n";
  }
}

std::size_t default_scale(int argc, char** argv) {
  observability_from_args(argc, argv);
  util::Cli cli(argc, argv);
  if (cli.has("scale")) {
    return static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("scale", 2)));
  }
  if (const char* env = std::getenv("GPUMEM_BENCH_SCALE")) {
    return static_cast<std::size_t>(std::max(1l, std::strtol(env, nullptr, 10)));
  }
  return 2;
}

int finish_ratio_rig(const std::string& path, const std::string& schema,
                     const std::vector<RatioRow>& rows, bool identical) {
  std::ofstream f(path);
  f.precision(17);
  f << "{\n  \"schema\": \"" << schema << "\",\n  \"scenarios\": [\n";
  bool pass = identical;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RatioRow& r = rows[i];
    f << "    {\"name\": \"" << r.name << "\", \"cold_ns\": " << r.cold_ns
      << ", \"hot_ns\": " << r.hot_ns << ", \"speedup\": " << r.speedup()
      << ", \"min_speedup\": " << r.min_speedup << ", \"mems\": " << r.mems
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    const bool gated = r.min_speedup > 0.0;
    const bool ok = !gated || r.speedup() >= r.min_speedup;
    pass = pass && ok;
    std::cout << "  " << (ok ? "ok  " : "FAIL") << " " << r.name << ": cold "
              << r.cold_ns / 1e6 << " ms, hot " << r.hot_ns / 1e6
              << " ms -> " << r.speedup() << "x"
              << (gated ? " (floor " + std::to_string(r.min_speedup) + "x)"
                        : " (informational)")
              << ", mems " << r.mems << "\n";
  }
  f << "  ]\n}\n";
  std::cout << "wrote " << path << " (" << rows.size() << " scenarios)\n";
  if (!identical) {
    std::cout << "FAILED: MEM sets are not bit-identical across the timed "
                 "paths\n";
  }
  return pass ? 0 : 1;
}

bool observability_from_args(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bool on = cli.get_bool("obs", false);
  if (!on) {
    if (const char* env = std::getenv("GPUMEM_OBS")) {
      const std::string v(env);
      on = !v.empty() && v != "0" && v != "false" && v != "no";
    }
  }
  if (on) {
    obs::Registry::global().set_enabled(true);
  }
  return obs::Registry::global().enabled();
}

}  // namespace gm::bench
