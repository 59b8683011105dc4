// Extension bench: multi-device scaling (paper future work + its
// reference [1], distributed MEM extraction by reference partitioning).
// Modeled extraction time vs device count on the chrXc/chrXh configuration.
#include <iostream>

#include "bench_common.h"
#include "core/device_pool.h"

using namespace gm;

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  const bench::PaperConfig pc{"chrXc_s/chrXh_s", 30, 11, 0, 0, 0};
  const seq::DatasetPair& data = bench::dataset_for(pc.dataset, scale);

  core::Config cfg = bench::gpumem_config(pc, core::Backend::kSimt, data.reference.size());
  // Smaller tiles so there are enough rows to distribute.
  cfg.tile_blocks = 16;

  util::Table table({"devices", "rows/device", "index s", "extract s",
                     "speedup", "#MEMs"});
  double base_time = 0.0;
  std::size_t base_mems = 0;
  for (const std::uint32_t devices : {1u, 2u, 4u, 8u}) {
    const core::Result r =
        core::DevicePool(cfg, devices, data.reference).run(data.query);
    if (devices == 1) {
      base_time = r.stats.device_match_seconds();
      base_mems = r.mems.size();
    } else if (r.mems.size() != base_mems) {
      std::cerr << "!! device count changed the MEM set\n";
      return 1;
    }
    table.add_row(
        {util::Table::num(static_cast<std::uint64_t>(devices)),
         util::Table::num(static_cast<std::uint64_t>(
             (r.stats.tile_rows + devices - 1) / devices)),
         util::Table::num(r.stats.index_seconds, 4),
         util::Table::num(r.stats.device_match_seconds(), 4),
         util::Table::num(base_time / std::max(1e-12, r.stats.device_match_seconds()), 2),
         util::Table::num(r.stats.mem_count)});
    std::cerr << "  devices=" << devices << ": "
              << r.stats.device_match_seconds() << " s\n";
  }

  bench::emit("ablation_multigpu", table);
  std::cout << "Row-partitioning scales sub-linearly (each device still scans\n"
               "the full query against its rows), exactly the trade-off the\n"
               "distributed-MEM literature reports; output is identical at\n"
               "every device count.\n";
  return 0;
}
