// Index persistence regression rig: measures the build-once / serve-many
// win the store/ subsystem exists for (docs/STORAGE.md) and emits
// BENCH_indexio.json (schema gpumem-bench-indexio-v1) for
// scripts/bench_check.py.
//
// Three costs are measured on the same reference in one process:
//   cold-build      the in-process builders for every structure the
//                   artifact carries — Algorithm 1 row indexes, SA-IS,
//                   Kasai LCP, sparse SA, FM-index — what a process start
//                   pays without an artifact;
//   artifact-load   MappedArtifact::open_file (mmap + full checksum verify
//                   of every section) + LoadedIndex + native_index()
//                   materialization — what a process start pays *with* an
//                   artifact. The SA/LCP/sparse substrates are usable
//                   zero-copy spans at that point (no materialization to
//                   time: not copying them is the format's design win);
//   registry-hit    ReferenceRegistry::acquire on an already-resident
//                   tenant — what a steady-state request pays.
//
// The gated quantities are self-relative ratios (both sides timed in the
// same process on the same data, stable on shared runners): artifact load
// must beat the cold build by the 10x floor embedded in the JSON, and the
// loaded index must extract bit-identical MEMs (the binary self-gates this
// regardless of any baseline). Raw nanoseconds are recorded for trend
// inspection but never gated.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "index/fm_index.h"
#include "index/lcp.h"
#include "index/sparse_suffix_array.h"
#include "index/suffix_array.h"
#include "seq/synthetic.h"
#include "serve/registry.h"
#include "store/artifact.h"
#include "store/loaded_index.h"
#include "util/cli.h"

using namespace gm;

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "BENCH_indexio.json");
  const std::string dir = cli.get("artifact-dir", "bench-indexio-artifacts");
  const int reps = static_cast<int>(cli.get_int("reps", 5));

  // A reference large enough that the index build dwarfs per-call fixed
  // costs; seed_len keeps the 4^ls bucket table a small fraction of the
  // payload so the artifact is dominated by real index data.
  seq::GenomeModel genome;
  genome.length = std::max<std::size_t>(std::size_t{1} << 17,
                                        (std::size_t{1} << 21) / scale);
  const seq::Sequence ref = genome.generate(42);
  seq::MutationModel mut;
  mut.snp_rate = 0.002;
  const seq::Sequence query = mut.apply(ref, 7);

  core::Config cfg;
  cfg.backend = core::Backend::kNative;
  cfg.min_length = 64;
  cfg.seed_len = 10;
  const core::Engine engine(cfg);

  std::filesystem::create_directories(dir);
  const std::string path =
      (std::filesystem::path(dir) / "bench.gmidx").string();
  store::BuildOptions opt;
  opt.with_suffix_array = true;
  opt.sparseness = 4;
  opt.fm_sa_sample = 32;
  const auto image = store::build_artifact(ref, cfg, opt);
  store::write_artifact_file(path, image);

  std::vector<bench::RatioRow> rows;
  bool identical = true;

  // --- cold-build vs artifact-load ----------------------------------------
  // The cold side runs exactly the builders `gpumem_cli index-build` ran to
  // produce the artifact being loaded; the hot side pays mmap + full
  // verification + native-row materialization — the honest end-to-end cost
  // of reaching the same ready-to-serve state.
  const double build_ns = bench::time_best_ns(reps, [&] {
    const auto idx = engine.build_native_index(ref);
    if (idx.rows.empty()) std::abort();
    const auto sa = index::build_suffix_array(ref);
    const auto lcp = index::build_lcp_kasai(ref, sa);
    if (lcp.size() != sa.size()) std::abort();
    const index::SparseSuffixArray ssa(ref, opt.sparseness);
    if (ssa.positions().empty()) std::abort();
    const index::FmIndex fm(ref, opt.fm_sa_sample);
    if (fm.rows() == 0) std::abort();
  });
  std::uint64_t load_mems = 0;
  const double load_ns = bench::time_best_ns(reps, [&] {
    const store::LoadedIndex loaded(store::MappedArtifact::open_file(path));
    const auto idx = loaded.native_index();
    if (idx.rows.empty()) std::abort();
  });
  {
    const store::LoadedIndex loaded(store::MappedArtifact::open_file(path));
    const auto fresh = engine.run(ref, query).mems;
    const auto replay =
        engine
            .run_native_prebuilt(loaded.reference(), query,
                                 loaded.native_index())
            .mems;
    if (fresh != replay) {
      identical = false;
      std::cerr << "!! artifact-load: loaded-index MEMs diverge ("
                << fresh.size() << " vs " << replay.size() << ")\n";
    }
    load_mems = replay.size();
  }
  rows.push_back({"artifact-load", build_ns, load_ns, 10.0, load_mems});

  // --- registry: cold activation vs warm hit ------------------------------
  // Cold activation includes everything artifact-load does plus MemService
  // spin-up; the warm hit is the steady-state lookup every routed request
  // pays. Informational (no floor): the ratio is enormous by construction
  // and its exact value only reflects service start cost.
  {
    serve::ServiceConfig base;
    base.engine = cfg;
    base.engine.backend = core::Backend::kSimt;
    // Serving geometry: a few dozen tile rows, and a seed length whose
    // 4^ls bucket table is small per row (each row stores its own table).
    base.engine.seed_len = 6;
    base.engine.threads = 64;
    base.engine.tile_blocks = 8;
    const auto rimage = store::build_artifact(ref, base.engine);
    store::write_artifact_file(
        (std::filesystem::path(dir) / "tenant.gmidx").string(), rimage);

    const double cold_ns = bench::time_best_ns(std::max(1, reps / 2), [&] {
      serve::ReferenceRegistry reg(dir, base);
      if (reg.acquire("tenant") == nullptr) std::abort();
    });
    serve::ReferenceRegistry reg(dir, base);
    (void)reg.acquire("tenant");
    const double hit_ns = bench::time_best_ns(reps, [&] {
      if (reg.acquire("tenant") == nullptr) std::abort();
    });
    // mems = 0: this scenario has no extraction output to pin.
    rows.push_back({"registry-warm-hit", cold_ns, hit_ns, 0.0, 0});
  }

  std::cout << "artifact " << image.size() << " bytes\n";
  return bench::finish_ratio_rig(out, "gpumem-bench-indexio-v1", rows,
                                 identical);
}
