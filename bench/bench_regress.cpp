// Pipeline perf-regression rig: measures the modeled pipeline cost (cycles +
// seconds) and host wall time for the serial, stream-overlapped, and serving
// paths over a fixed scenario set, and emits BENCH_pipeline.json for
// scripts/bench_check.py to gate against the committed baseline
// (bench/BENCH_pipeline.json, +-10% on modeled cycles).
//
// The binary self-gates two invariants regardless of any baseline:
//   * every overlapped run's MEM set is bit-identical to its serial run;
//   * the aggregate overlap speedup (sum of serial makespans / sum of
//     overlapped makespans) is >= 1.15x — the tentpole's win, kept honest.
//
// Wall-clock nanoseconds are recorded for trend inspection but never gated:
// CI machines and this 1-core container are too noisy for a wall gate.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "serve/service.h"
#include "util/cli.h"
#include "util/timer.h"

using namespace gm;

namespace {

constexpr double kMinSpeedup = 1.15;

struct Scenario {
  std::string name;       ///< "<dataset>:L<min_len>:<path>"
  double modeled_seconds; ///< pipeline makespan (overlap-aware)
  double modeled_cycles;  ///< makespan x device core clock — the gated metric
  double wall_ns;         ///< host wall time (informational only)
  std::size_t mems;
};

Scenario make_scenario(std::string name, const core::Config& cfg,
                       double makespan, double wall_seconds,
                       std::size_t mems) {
  return {std::move(name), makespan, makespan * cfg.device.clock_hz,
          wall_seconds * 1e9, mems};
}

void write_json(const std::string& path, const std::vector<Scenario>& rows,
                double speedup) {
  std::ofstream f(path);
  f.precision(17);
  f << "{\n  \"schema\": \"gpumem-bench-pipeline-v1\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Scenario& s = rows[i];
    f << "    {\"name\": \"" << s.name << "\", \"modeled_cycles\": "
      << s.modeled_cycles << ", \"modeled_seconds\": " << s.modeled_seconds
      << ", \"wall_ns\": " << s.wall_ns << ", \"mems\": " << s.mems << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"overlap_speedup\": " << speedup << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "BENCH_pipeline.json");

  // Scenario set (index into bench::paper_configs()): two row-rich configs
  // where overlap pays (index-build hiding + cross-tile SM backfill), one
  // column-only config pinning the no-regression floor, and one serving
  // path over the smallest dataset.
  const auto configs = bench::paper_configs();
  const std::size_t engine_cases[] = {2, 4, 8};  // chr1m L30, chrX L30, chrXII L10
  const std::size_t serve_case = 6;              // dmel L15

  std::vector<Scenario> rows;
  double serial_sum = 0.0, overlap_sum = 0.0;
  bool identical = true;

  for (const std::size_t idx : engine_cases) {
    const bench::PaperConfig& pc = configs[idx];
    const seq::DatasetPair& data = bench::dataset_for(pc.dataset, scale);
    const std::string tag = pc.dataset + ":L" + std::to_string(pc.min_len);
    core::Config cfg = bench::gpumem_config(pc, core::Backend::kSimt,
                                            data.reference.size());

    util::Timer ts;
    const core::Result serial =
        core::Engine(cfg).run(data.reference, data.query);
    const double serial_wall = ts.seconds();

    core::Config ocfg = cfg;
    ocfg.overlap_streams = 4;
    util::Timer to;
    const core::Result over =
        core::Engine(ocfg).run(data.reference, data.query);
    const double over_wall = to.seconds();

    if (over.mems != serial.mems) {
      identical = false;
      std::cerr << "!! " << tag << ": overlapped MEM set diverges from "
                << "serial (" << over.mems.size() << " vs "
                << serial.mems.size() << ")\n";
    }
    serial_sum += serial.stats.modeled_makespan_seconds;
    overlap_sum += over.stats.modeled_makespan_seconds;
    std::cerr << "  " << tag << ": serial "
              << serial.stats.modeled_makespan_seconds << " s, overlapped "
              << over.stats.modeled_makespan_seconds << " s modeled ("
              << serial.stats.modeled_makespan_seconds /
                     over.stats.modeled_makespan_seconds
              << "x)\n";
    rows.push_back(make_scenario(tag + ":serial", cfg,
                                 serial.stats.modeled_makespan_seconds,
                                 serial_wall, serial.mems.size()));
    rows.push_back(make_scenario(tag + ":overlapped", ocfg,
                                 over.stats.modeled_makespan_seconds,
                                 over_wall, over.mems.size()));
  }

  {
    const bench::PaperConfig& pc = configs[serve_case];
    const seq::DatasetPair& data = bench::dataset_for(pc.dataset, scale);
    const std::string tag = pc.dataset + ":L" + std::to_string(pc.min_len);
    serve::ServiceConfig scfg;
    scfg.engine = bench::gpumem_config(pc, core::Backend::kSimt,
                                       data.reference.size());
    scfg.engine.overlap_streams = 4;
    serve::MemService svc(scfg, data.reference);
    (void)svc.submit({.id = "cold", .query = data.query}).get();  // warm cache
    util::Timer tw;
    const serve::QueryResult warm =
        svc.submit({.id = "warm", .query = data.query}).get();
    const double warm_wall = tw.seconds();
    if (warm.status != serve::QueryStatus::kOk) {
      std::cerr << "!! serve warm request failed: " << warm.error << "\n";
      return 1;
    }
    std::cerr << "  " << tag << ": serve warm "
              << warm.stats.modeled_makespan_seconds << " s modeled\n";
    rows.push_back(make_scenario(tag + ":serve-warm", scfg.engine,
                                 warm.stats.modeled_makespan_seconds,
                                 warm_wall, warm.mems.size()));
  }

  const double speedup = serial_sum / overlap_sum;
  write_json(out, rows, speedup);
  std::cout << "overlap speedup (aggregate modeled makespan): " << speedup
            << "x (gate: >= " << kMinSpeedup << "x)\n"
            << "wrote " << out << " (" << rows.size() << " scenarios)\n";
  if (!identical) {
    std::cout << "FAILED: overlapped MEM sets are not bit-identical\n";
    return 1;
  }
  if (speedup < kMinSpeedup) {
    std::cout << "FAILED: overlap speedup below the " << kMinSpeedup
              << "x gate\n";
    return 1;
  }
  return 0;
}
