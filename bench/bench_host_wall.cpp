// Host-throughput regression rig: measures wall nanoseconds of the host hot
// paths (match extension, out-tile stitch, index build, end-to-end runs)
// twice — once with the byte-at-a-time scalar LCE reference
// (seq::LceMode::kScalar, the row's cold_ns) and once with the
// word-parallel packed path (kWord, the shipping default; hot_ns) — and
// emits BENCH_hostwall.json for scripts/bench_check.py.
//
// The gated quantity is the *self-relative* scalar/packed speedup ratio,
// which is stable across machines (both measurements run in the same
// process on the same data), unlike absolute wall time. The binary also
// self-gates two invariants regardless of any baseline:
//   * every scenario's outputs are bit-identical across the two modes;
//   * each gated scenario meets its embedded speedup floor (3x on the
//     match-extend and stitch micros, 1.5x end-to-end on the prebuilt
//     native path).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/host_stitch.h"
#include "core/pipeline.h"
#include "obs/registry.h"
#include "seq/packed.h"
#include "seq/synthetic.h"
#include "util/cli.h"

using namespace gm;

namespace {

/// Runs `fn` under both LCE modes (cold = scalar, hot = packed); verifies
/// the modes' `out` vectors are bit-identical, records the pair of timings.
template <typename Fn>
bench::RatioRow measure(const std::string& name, double min_speedup, int reps,
                        Fn&& fn, bool& identical) {
  std::vector<mem::Mem> scalar_out, packed_out;
  seq::set_lce_mode(seq::LceMode::kScalar);
  const double scalar_ns = bench::time_best_ns(reps, [&] {
    scalar_out.clear();
    fn(scalar_out);
  });
  seq::set_lce_mode(seq::LceMode::kWord);
  const double packed_ns = bench::time_best_ns(reps, [&] {
    packed_out.clear();
    fn(packed_out);
  });
  if (scalar_out != packed_out) {
    identical = false;
    std::cerr << "!! " << name << ": scalar and packed outputs diverge ("
              << scalar_out.size() << " vs " << packed_out.size() << ")\n";
  }
  return {name, scalar_ns, packed_ns, min_speedup, packed_out.size()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t scale = bench::default_scale(argc, argv);
  util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "BENCH_hostwall.json");

  // Coordinate-aligned pair (SNPs only, no indels or structural ops) so
  // every (j, j) pair is a candidate inside a long shared run: the match
  // extension micro then spends its whole time in LCE, exactly like the
  // inner loop of the pipeline on a high-identity pair.
  seq::GenomeModel genome;
  genome.length = std::max<std::size_t>(std::size_t{1} << 17,
                                        (std::size_t{1} << 21) / scale);
  const seq::Sequence ref = genome.generate(42);
  seq::MutationModel mut;
  mut.snp_rate = 0.0005;  // mean shared run ~2 kbp: LCE dominates the mode-
                          // independent costs (sorting, index probes), so the
                          // self-relative ratio actually measures the codec
  mut.indel_rate = 0.0;
  mut.inversions = 0;
  mut.translocations = 0;
  mut.duplications = 0;
  const seq::Sequence query = mut.apply(ref, 7);
  const std::uint32_t n =
      static_cast<std::uint32_t>(std::min(ref.size(), query.size()));
  // expand_clamped requires a verified match triplet, so (j, j, 1) is only a
  // legal candidate where the bases agree (i.e. j is not a SNP site).
  std::vector<std::uint32_t> candidates;
  {
    const seq::PackedSeq pr(ref), pq(query);
    for (std::uint32_t j = 1; j + 1 < n; j += 192) {
      if (pr.base(j) == pq.base(j)) candidates.push_back(j);
    }
  }
  const core::Rect whole{0, static_cast<std::uint32_t>(ref.size()), 0,
                         static_cast<std::uint32_t>(query.size())};
  constexpr std::uint32_t kMinLen = 64;

  // --- --obs-overhead: tracing+metrics cost gate (separate mode + output
  // so the default scenario set — and its committed baseline — is
  // untouched). Runs the e2e-native prebuilt path with observability fully
  // off vs fully on (spans + metrics + flight recorder), requires
  // bit-identical MEMs and <= 5% wall overhead. The two sides run in
  // interleaved pairs, alternating which goes first, and the gate reads the
  // median of the per-pair on/off ratios: a drift in machine speed during
  // the run then moves both runs of a pair alike instead of one whole side.
  if (cli.get_bool("obs-overhead", false)) {
    const std::string obs_out = cli.get("out", "BENCH_obsoverhead.json");
    const int pairs =
        std::max<int>(1, static_cast<int>(cli.get_int("obs-reps", 21)));
    constexpr double kMaxOverhead = 0.05;

    core::Config cfg;
    cfg.backend = core::Backend::kNative;
    cfg.min_length = kMinLen;
    cfg.seed_len = 12;
    const core::Engine engine(cfg);
    const core::Engine::NativeIndex prebuilt = engine.build_native_index(ref);

    std::vector<mem::Mem> off_mems, on_mems;
    std::size_t spans = 0;
    const auto run_off = [&] {
      obs::Registry::global().set_enabled(false);
      util::Timer t;
      off_mems = engine.run_native_prebuilt(ref, query, prebuilt).mems;
      return t.seconds() * 1e9;
    };
    const auto run_on = [&] {
      obs::Registry::global().set_enabled(true);
      util::Timer t;
      // Clearing per run bounds trace growth; its cost is charged to the
      // obs side, keeping the comparison conservative.
      obs::Registry::global().trace().clear();
      on_mems = engine.run_native_prebuilt(ref, query, prebuilt).mems;
      spans = obs::Registry::global().trace().size();
      const double ns = t.seconds() * 1e9;
      obs::Registry::global().set_enabled(false);
      return ns;
    };
    obs::Registry::global().reset();
    run_off();  // warm-up, untimed: first touch of the index and the heap
    run_on();
    std::vector<double> off_runs, on_runs, ratios;
    for (int p = 0; p < pairs; ++p) {
      double off_ns = 0.0, on_ns = 0.0;
      if (p % 2 == 0) {
        off_ns = run_off();
        on_ns = run_on();
      } else {
        on_ns = run_on();
        off_ns = run_off();
      }
      off_runs.push_back(off_ns);
      on_runs.push_back(on_ns);
      ratios.push_back(on_ns / off_ns);
    }
    obs::Registry::global().reset();
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      const std::size_t m = v.size() / 2;
      return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
    };
    const double off_ns = median(off_runs);
    const double on_ns = median(on_runs);

    const double overhead = median(ratios) - 1.0;
    const bool same = off_mems == on_mems;
    std::ofstream f(obs_out);
    f.precision(17);
    f << "{\n  \"schema\": \"gpumem-bench-obsoverhead-v1\",\n"
      << "  \"scenario\": \"e2e-native\",\n"
      << "  \"pairs\": " << pairs << ",\n"
      << "  \"off_ns\": " << off_ns << ",\n  \"on_ns\": " << on_ns << ",\n"
      << "  \"overhead_frac\": " << overhead << ",\n"
      << "  \"max_overhead_frac\": " << kMaxOverhead << ",\n"
      << "  \"spans_per_run\": " << spans << ",\n"
      << "  \"mems\": " << on_mems.size() << ",\n"
      << "  \"identical\": " << (same ? "true" : "false") << "\n}\n";
    std::cout << "  obs-overhead e2e-native: median of " << pairs
              << " interleaved pairs: off " << off_ns / 1e6 << " ms, on "
              << on_ns / 1e6 << " ms -> " << overhead * 100.0
              << "% overhead (" << spans
              << " spans/run, ceiling " << kMaxOverhead * 100.0 << "%), mems "
              << on_mems.size() << (same ? "" : " NOT IDENTICAL") << "\n";
    std::cout << "wrote " << obs_out << "\n";
    if (!same) {
      std::cout << "FAILED: MEMs differ with observability enabled\n";
      return 1;
    }
    if (overhead > kMaxOverhead) {
      std::cout << "FAILED: observability overhead above ceiling\n";
      return 1;
    }
    return 0;
  }

  std::vector<bench::RatioRow> rows;
  bool identical = true;

  // --- match-extend: bidirectional expansion of sampled candidates --------
  rows.push_back(measure(
      "match-extend", 3.0, 3,
      [&](std::vector<mem::Mem>& sink) {
        const seq::PackedSeq pr(ref), pq(query);
        for (const std::uint32_t j : candidates) {
          const mem::Mem e =
              core::expand_clamped(pr, pq, mem::Mem{j, j, 1}, whole);
          if (e.len >= kMinLen) sink.push_back(e);
        }
      },
      identical));

  // --- stitch: chain-combine + full-sequence expansion of clipped pieces --
  // Pieces are narrow block-strip fragments (64-wide clamps), the shape the
  // host merge sees when capacity-clipped rounds report partial triplets.
  // Fragments of one run sit 192 apart with 64 of coverage, so combine
  // cannot chain them back together and every survivor re-extends to its
  // full ~kilobase run — the expansion loop finalize_out_tile exists for.
  std::vector<mem::Mem> pieces;
  {
    const seq::PackedSeq pr(ref), pq(query);
    constexpr std::uint32_t kStrip = 64;
    for (const std::uint32_t j : candidates) {
      const std::uint32_t s0 = j / kStrip * kStrip;
      const std::uint32_t s1 = std::min<std::uint32_t>(
          s0 + kStrip, static_cast<std::uint32_t>(ref.size()));
      const core::Rect strip{s0, s1, s0,
                             std::min<std::uint32_t>(
                                 s1, static_cast<std::uint32_t>(query.size()))};
      const mem::Mem e =
          core::expand_clamped(pr, pq, mem::Mem{j, j, 1}, strip);
      if (e.len > 0) pieces.push_back(e);
    }
  }
  rows.push_back(measure(
      "stitch", 3.0, 3,
      [&](std::vector<mem::Mem>& sink) {
        sink = core::finalize_out_tile(ref, query, pieces, kMinLen);
      },
      identical));

  // --- index-build: no LCE inside, recorded to prove it is mode-neutral ---
  core::Config cfg;
  cfg.backend = core::Backend::kNative;
  cfg.min_length = kMinLen;
  cfg.seed_len = 12;
  const core::Engine engine(cfg);
  rows.push_back(measure(
      "index-build", 0.0, 2,
      [&](std::vector<mem::Mem>& sink) {
        const auto idx = engine.build_native_index(ref);
        sink.push_back(mem::Mem{0, 0, static_cast<std::uint32_t>(
                                          idx.rows.size())});
      },
      identical));

  // --- e2e: the build-once/query-many native path --------------------------
  const core::Engine::NativeIndex prebuilt = engine.build_native_index(ref);
  rows.push_back(measure(
      "e2e-native", 1.5, 3,
      [&](std::vector<mem::Mem>& sink) {
        sink = engine.run_native_prebuilt(ref, query, prebuilt).mems;
      },
      identical));

  // --- e2e-simt: informational (host time is simulator-dominated, so the
  // LCE share is small by construction) — run on a reduced pair to keep the
  // coroutine simulation bounded.
  {
    seq::GenomeModel small = genome;
    small.length = genome.length / 8;
    const seq::Sequence sref = small.generate(43);
    const seq::Sequence squery = mut.apply(sref, 9);
    core::Config scfg = cfg;
    scfg.backend = core::Backend::kSimt;
    const core::Engine simt_engine(scfg);
    rows.push_back(measure(
        "e2e-simt", 0.0, 1,
        [&](std::vector<mem::Mem>& sink) {
          sink = simt_engine.run(sref, squery).mems;
        },
        identical));
  }

  return bench::finish_ratio_rig(out, "gpumem-bench-hostwall-v1", rows,
                                 identical);
}
