// copMEM fast-index regression rig: measures the index+match end-to-end win
// the double-sampled finder (mem/copmem, docs/DESIGN.md "Double sampling")
// exists for, and emits BENCH_copmem.json (schema gpumem-bench-copmem-v1)
// for scripts/bench_check.py.
//
// Per Table-IV scenario, three end-to-end costs are measured in one process
// and reported as two rows:
//   "<dataset> L<minlen>"         gated: the SA-IS pipeline (EssaMemFinder:
//                                 SA-IS suffix construction + sparse-ESA
//                                 matching — the index build whose cost
//                                 motivated ISSUE 8) vs the copmem
//                                 fast-index path (store::open_host_finder
//                                 "copmem", then find: one pass over every
//                                 k1-th reference k-mer, then every k2-th
//                                 query position verified with
//                                 word-parallel LCE). Carries the 3x floor.
//   "<dataset> L<minlen> native"  informational: the native tiled pipeline
//                                 (Engine::run on Backend::kNative, per-row
//                                 Algorithm-1 k-mer tables) vs the same
//                                 fast-index path. No floor — the native
//                                 path shares the radix-built KmerIndex, so
//                                 the ratio tracks sampling density, not
//                                 index construction.
//
// The gated quantity is the self-relative cold/hot ratio — both sides are
// timed in the same process on the same data, so the 3x floor is stable on
// shared runners. The binary additionally self-gates that all three paths
// extract bit-identical MEM sets regardless of any baseline. Raw
// nanoseconds are recorded for trend inspection but never gated.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "mem/essamem.h"
#include "seq/synthetic.h"
#include "store/loaded_index.h"
#include "util/cli.h"

using namespace gm;

namespace {

/// The floor every gated SA-IS/copmem row carries.
/// No flag: bench_check.py fails any floor that differs from the
/// committed baseline's per-row min_speedup.
constexpr double kFloor = 3.0;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "BENCH_copmem.json");
  const int reps = static_cast<int>(cli.get_int("reps", 3));

  std::vector<bench::RatioRow> rows;
  bool identical = true;

  for (const bench::PaperConfig& pc : bench::paper_configs()) {
    const seq::DatasetPair& data = bench::dataset_for(pc.dataset, scale);
    const core::Config cfg = bench::gpumem_config(pc, core::Backend::kNative,
                                                  data.reference.size());
    const core::Engine engine(cfg);
    const std::string name = pc.dataset + " L" + std::to_string(pc.min_len);

    // The SA-IS side repeats a full suffix-array construction per rep, so
    // it gets fewer reps; best-of still removes scheduling noise.
    std::vector<mem::Mem> sais_mems;
    const double sais_ns = bench::time_best_ns(std::max(1, reps / 3), [&] {
      mem::EssaMemFinder essa;
      mem::FinderOptions opt;
      opt.min_length = pc.min_len;
      opt.threads = cfg.threads;
      essa.build_index(data.reference, opt);
      sais_mems = essa.find(data.query);
    });

    std::vector<mem::Mem> native_mems, hot_mems;
    const double native_ns = bench::time_best_ns(reps, [&] {
      native_mems = engine.run(data.reference, data.query).mems;
    });
    const double hot_ns = bench::time_best_ns(reps, [&] {
      mem::FinderOptions opt;
      opt.min_length = cfg.min_length;
      hot_mems = store::open_host_finder("copmem", data.reference, opt,
                                         cfg.seed_len)
                     ->find(data.query);
    });
    if (hot_mems != sais_mems || hot_mems != native_mems) {
      identical = false;
      std::cerr << "!! " << name
                << ": MEM sets diverge (copmem " << hot_mems.size()
                << ", sa-is " << sais_mems.size() << ", native "
                << native_mems.size() << ")\n";
    }

    rows.push_back({name, sais_ns, hot_ns, kFloor, hot_mems.size()});
    rows.push_back({name + " native", native_ns, hot_ns, 0.0,
                    hot_mems.size()});
  }

  return bench::finish_ratio_rig(out, "gpumem-bench-copmem-v1", rows,
                                 identical);
}
