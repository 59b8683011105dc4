// Reproduces paper Table IV: MEM-extraction times for sparseMEM and essaMEM
// (tau = 1, 4, 8), MUMmer, slaMEM, and GPUMEM over the nine configurations.
//
// Conventions (see EXPERIMENTS.md):
//  * CPU tools: tau-shard modeled parallel seconds (max shard wall time;
//    equals plain wall time for single-threaded tools) — the 1-core-host
//    stand-in for the paper's 8-core machine.
//  * GPUMEM: modeled device seconds of everything after indexing.
//  * Every tool's MEM count is cross-checked for equality — the benchmark
//    doubles as a large-scale integration test.
#include <iostream>

#include "bench_common.h"
#include "core/finders.h"
#include "core/pipeline.h"
#include "mem/registry.h"
#include "mem/validate.h"

using namespace gm;

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  util::Table table({"reference/query", "L", "sparseMEM t1", "sparseMEM t4",
                     "sparseMEM t8", "essaMEM t1", "essaMEM t4", "essaMEM t8",
                     "MUMmer", "slaMEM", "GPUMEM", "GPUMEM ovl", "GPUMEM paper",
                     "#MEMs"});

  bool counts_consistent = true;
  double serial_makespan_sum = 0.0, overlap_makespan_sum = 0.0;
  for (const bench::PaperConfig& pc : bench::paper_configs()) {
    const seq::DatasetPair& data = bench::dataset_for(pc.dataset, scale);
    std::vector<std::string> row{pc.dataset, std::to_string(pc.min_len)};
    std::size_t mem_count = 0;
    bool first_count = true;

    auto run_tool = [&](const std::string& name, std::uint32_t tau,
                        std::uint32_t sparseness) {
      auto finder = mem::create_finder(name);
      mem::FinderOptions opt;
      opt.min_length = pc.min_len;
      opt.threads = tau;
      opt.sparseness = sparseness;
      opt.sequential_shards = true;  // deterministic tau-shard timing
      finder->build_index(data.reference, opt);
      const auto mems = finder->find(data.query);
      if (first_count) {
        mem_count = mems.size();
        first_count = false;
      } else if (mems.size() != mem_count) {
        counts_consistent = false;
        std::cerr << "!! " << name << " tau=" << tau << " found "
                  << mems.size() << " MEMs, expected " << mem_count << "\n";
      }
      const double secs = finder->last_find_modeled_seconds();
      std::cerr << "  " << name << " tau=" << tau << " L=" << pc.min_len
                << ": " << secs << " s, " << mems.size() << " MEMs\n";
      row.push_back(util::Table::num(secs, 3));
    };

    for (const std::uint32_t tau : {1u, 4u, 8u}) run_tool("sparsemem", tau, tau);
    for (const std::uint32_t tau : {1u, 4u, 8u}) run_tool("essamem", tau, tau);
    run_tool("mummer", 1, 1);
    run_tool("slamem", 1, 1);
    {
      core::GpumemFinder finder(core::Backend::kSimt);
      finder.mutable_config() = bench::gpumem_config(pc, core::Backend::kSimt, data.reference.size());
      mem::FinderOptions opt;
      opt.min_length = pc.min_len;
      finder.build_index(data.reference, opt);
      const auto mems = finder.find(data.query);
      if (mems.size() != mem_count) {
        counts_consistent = false;
        std::cerr << "!! gpumem found " << mems.size() << " MEMs, expected "
                  << mem_count << "\n";
      }
      // Definition-level soundness check at bench scale (the exhaustive
      // ground truth is infeasible here).
      const auto validation =
          mem::validate_mems(data.reference, data.query, mems, pc.min_len);
      if (!validation.ok()) {
        counts_consistent = false;
        std::cerr << "!! gpumem output fails MEM validation: "
                  << validation.first_error << "\n";
      }
      row.push_back(util::Table::num(finder.last_stats().device_match_seconds(), 3));

      // The same config on four worker streams: must produce the
      // bit-identical MEM set, in less modeled makespan (double-buffered
      // index builds + cross-row SM backfill — see docs/PIPELINE.md).
      const core::Config scfg =
          bench::gpumem_config(pc, core::Backend::kSimt, data.reference.size());
      core::Config ocfg = scfg;
      ocfg.overlap_streams = 4;
      const core::Result serial = core::Engine(scfg).run(data.reference, data.query);
      const core::Result over = core::Engine(ocfg).run(data.reference, data.query);
      if (over.mems != serial.mems || serial.mems != mems) {
        counts_consistent = false;
        std::cerr << "!! overlapped pipeline MEM set diverges (serial "
                  << serial.mems.size() << ", overlapped " << over.mems.size()
                  << ", finder " << mems.size() << ")\n";
      }
      serial_makespan_sum += serial.stats.modeled_makespan_seconds;
      overlap_makespan_sum += over.stats.modeled_makespan_seconds;
      row.push_back(util::Table::num(over.stats.device_match_seconds(), 3));
      row.push_back(util::Table::num(pc.paper_gpumem_extract, 2));
      std::cerr << "  gpumem L=" << pc.min_len
                << ": " << finder.last_stats().device_match_seconds() << " s modeled, "
                << mems.size() << " MEMs; overlap makespan "
                << over.stats.modeled_makespan_seconds << " s vs serial "
                << serial.stats.modeled_makespan_seconds << " s ("
                << serial.stats.modeled_makespan_seconds /
                       over.stats.modeled_makespan_seconds
                << "x)\n";
    }
    row.push_back(util::Table::num(static_cast<std::uint64_t>(mem_count)));
    table.add_row(std::move(row));
  }

  bench::emit("table4_extraction", table);
  std::cout << (counts_consistent
                    ? "MEM counts: identical across all tools (cross-check OK)\n"
                    : "MEM counts: MISMATCH DETECTED — see stderr\n");
  std::cout << "overlap speedup (aggregate modeled makespan): "
            << util::Table::num(serial_makespan_sum / overlap_makespan_sum, 2)
            << "x\n";
  std::cout << "Shape checks vs paper Table IV:\n"
               "  * GPUMEM is fastest in every configuration.\n"
               "  * essaMEM improves with tau; sparseMEM degrades (its index\n"
               "    shrinks with tau, making matching harder).\n"
               "  * All tools slow down as L decreases.\n";
  return counts_consistent ? 0 : 1;
}
