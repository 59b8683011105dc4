// gpumem_cli: a MUMmer-style command-line MEM extraction tool over FASTA
// files — the shape a downstream user consumes this library in.
//
//   ./gpumem_cli --ref ref.fa --query query.fa [flags; see --help]
//   ./gpumem_cli --load-index ref.gmidx --query query.fa [flags]
//   ./gpumem_cli --demo          # runs on generated data, no files needed
//   ./gpumem_cli index-build --ref ref.fa --out ref.gmidx [engine flags]
//   ./gpumem_cli index-info ref.gmidx
//
// index-build serializes the reference and its index structures into a
// persistent *.gmidx artifact (docs/STORAGE.md); --load-index serves
// matches from it without re-paying the build and takes its engine flags
// (core::engine_flags) from it. index-info prints its header and sections.
//
// Output format (MUMmer's show-coords flavour):
//   > <query record name> [Reverse]
//   <ref_pos+1>  <query_pos+1>  <length>
#include <fstream>
#include <iostream>
#include <optional>

#include "core/device_pool.h"
#include "core/finders.h"
#include "mem/registry.h"
#include "mem/report.h"
#include "mem/uniqueness.h"
#include "obs/snapshot.h"
#include "seq/fasta.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"
#include "store/artifact.h"
#include "store/loaded_index.h"
#include "util/cli.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

/// gpumem_cli's engine defaults: the paper's Table IV geometry.
gm::core::Config cli_defaults() {
  gm::core::Config cfg;
  cfg.min_length = 50;
  cfg.seed_len = 13;
  return cfg;
}

int run_index_build(gm::util::Cli& cli) {
  const std::string ref_path = cli.get("ref", "");
  const std::string out_path = cli.get("out", "");
  if (ref_path.empty() || out_path.empty()) {
    throw gm::util::InputError(
        "index-build needs --ref ref.fa and --out index.gmidx");
  }
  const gm::seq::FastaRecord ref = gm::seq::read_reference_file(ref_path);

  // Tile geometry (tile_len = tau * step * tile_blocks) must match the
  // serving config — gpumem_serve defaults to --tau 64 --tile-blocks 8.
  const gm::core::Config cfg = gm::core::engine_flags(cli, cli_defaults());

  gm::store::BuildOptions opt;
  opt.ref_name = cli.get("name", ref.name);
  if (opt.ref_name.size() > gm::store::kRefNameBytes) {
    opt.ref_name.resize(gm::store::kRefNameBytes);
  }
  opt.with_suffix_array = cli.get_bool("with-sa", false);
  opt.sparseness =
      static_cast<std::uint32_t>(cli.get_int("sparseness", 0));
  opt.fm_sa_sample =
      static_cast<std::uint32_t>(cli.get_int("fm-sample", 0));
  opt.copmem_step =
      static_cast<std::uint32_t>(cli.get_int("copmem-step", 0));

  gm::util::Timer timer;
  const std::vector<std::uint8_t> image =
      gm::store::build_artifact(ref.sequence, cfg, opt);
  gm::store::write_artifact_file(out_path, image);
  std::cerr << "[index-build] " << ref.sequence.size()
            << " bp reference -> " << out_path << " (" << image.size()
            << " bytes) in " << timer.seconds() << " s\n";
  return 0;
}

int run_index_info(gm::util::Cli& cli) {
  std::string path = cli.get("index", "");
  if (path.empty() && cli.positional().size() > 1) {
    path = cli.positional()[1];
  }
  if (path.empty()) {
    throw gm::util::InputError(
        "index-info needs an artifact path (positional or --index)");
  }
  const gm::store::MappedArtifact art =
      gm::store::MappedArtifact::open_file(path);
  const gm::store::ArtifactHeader& h = art.header();
  std::cout << "artifact:   " << path << " (" << art.file_bytes()
            << " bytes, format v" << h.version << ", "
            << (art.is_mapped() ? "mmap" : "buffered") << ")\n"
            << "reference:  \"" << h.name() << "\", " << h.ref_bases
            << " bp, " << h.ref_invalid << " invalid\n"
            << "geometry:   seed_len=" << h.seed_len << " step=" << h.step
            << " tau=" << h.tau << " tile_len=" << h.tile_len
            << " tile_rows=" << h.tile_rows << " min_length=" << h.min_length
            << "\n"
            << "extras:     sparseness=" << h.sparseness
            << " fm_sa_sample=" << h.fm_sa_sample << "\n"
            << "sections:\n";
  for (const gm::store::SectionEntry& e : art.sections()) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-16s %12llu bytes  fnv1a64=%016llx\n",
                  gm::store::section_name(
                      static_cast<gm::store::SectionId>(e.id)),
                  static_cast<unsigned long long>(e.bytes),
                  static_cast<unsigned long long>(e.checksum));
    std::cout << line;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gm::util::Cli cli(argc, argv);
  cli.describe("ref", "reference FASTA (first record used)");
  cli.describe("query", "query FASTA (every record matched)");
  cli.describe("demo", "run on generated synthetic data instead of files");
  gm::core::describe_engine_flags(cli, cli_defaults());
  cli.describe("backend", "gpumem backend: native (default) or simt");
  cli.describe("finder",
               "tool: gpumem (default), mummer, sparsemem, essamem, slamem "
               "(probes where they pay), slamem-lazy (probes at every "
               "frontier), copmem (double-sampling fast index)");
  cli.describe("both-strands", "also match the reverse-complement query");
  cli.describe("mum", "keep only matches unique in both sequences");
  cli.describe("out",
               "write matches to this file instead of stdout (index-build: "
               "the output artifact path)");
  gm::obs::ExportFlags::describe(cli);
  cli.describe("stats",
               "print RunStats incl. per-kernel launch counts to stderr "
               "(gpumem finder only)");
  cli.describe("host-threads",
               "host worker threads (default: GPUMEM_THREADS env or hardware "
               "concurrency)");
  cli.describe("load-index",
               "serve matches from a persistent index artifact (*.gmidx, "
               "see `index-build`); --ref becomes optional");
  cli.describe("name", "index-build: tenant name stored in the artifact "
                       "(default: reference record name)");
  cli.describe("with-sa", "index-build: also store suffix array + LCP");
  cli.describe("sparseness",
               "index-build: also store a sparse suffix array at this K");
  cli.describe("fm-sample",
               "index-build: also store an FM-index at this SA sample rate");
  cli.describe("copmem-step",
               "index-build: also store a copMEM sampled k-mer index at this "
               "reference step k1");
  cli.describe("index", "index-info: artifact path (or pass positionally)");
  for (const std::string& flag : cli.unknown_flags()) {
    std::cerr << "unknown flag --" << flag << "; see --help\n";
    return 2;
  }
  if (cli.handle_help("gpumem_cli: extract maximal exact matches from FASTA"))
    return 0;

  try {
    if (!cli.positional().empty()) {
      const std::string& verb = cli.positional().front();
      if (verb == "index-build") return run_index_build(cli);
      if (verb == "index-info") return run_index_info(cli);
      throw gm::util::InputError("unknown verb '" + verb +
                                 "' (index-build, index-info, or no verb to "
                                 "match)");
    }
    gm::util::ThreadPool::configure_global(
        static_cast<std::size_t>(cli.get_int("host-threads", 0)));

    // A loaded artifact supplies the reference and the L, ls, step, τ and
    // n_block defaults; a geometry that disagrees is rejected (stale).
    const std::string load_index = cli.get("load-index", "");
    std::shared_ptr<const gm::store::LoadedIndex> loaded;
    gm::core::Config defaults = cli_defaults();
    if (!load_index.empty()) {
      loaded = std::make_shared<const gm::store::LoadedIndex>(
          gm::store::MappedArtifact::open_file(load_index));
      const gm::store::ArtifactHeader& h = loaded->header();
      defaults.min_length = h.min_length;
      defaults.seed_len = h.seed_len;
      defaults.step = h.step;
      defaults.threads = h.tau;
      defaults.tile_blocks = h.tile_blocks();
    }
    gm::core::Config cfg = gm::core::engine_flags(cli, defaults);
    cfg.backend = cli.get("backend", "native") == "simt"
                      ? gm::core::Backend::kSimt
                      : gm::core::Backend::kNative;

    const std::string ref_path = cli.get("ref", "");
    const std::string query_path = cli.get("query", "");
    gm::seq::Sequence ref;
    std::vector<gm::seq::FastaRecord> queries;
    if (loaded == nullptr && cli.get_bool("demo", false)) {
      const auto pair = gm::seq::make_dataset("chrXII_s/chrI_s", 42, 4);
      ref = pair.reference;
      queries.push_back({"demo_query", pair.query, 0});
      std::cerr << "[demo] ref " << ref.size() << " bp, query "
                << pair.query.size() << " bp\n";
    } else {
      if (query_path.empty() || (loaded == nullptr && ref_path.empty())) {
        throw gm::util::InputError(
            loaded ? "need --query with --load-index; see --help"
                   : "need --ref and --query (or --demo); see --help");
      }
      if (loaded == nullptr) {
        ref = gm::seq::read_reference_file(ref_path).sequence;
      } else {
        if (cli.has("ref")) {
          std::cerr << "note: --ref ignored; the artifact embeds the "
                       "reference (\""
                    << loaded->header().name() << "\")\n";
        }
        ref = loaded->reference();
      }
      queries = gm::seq::read_query_file(query_path);
    }

    const gm::obs::ExportFlags obs = gm::obs::ExportFlags::read(cli);
    const bool print_stats = cli.get_bool("stats", false);
    const bool mum = cli.get_bool("mum", false);

    const std::string finder_name = cli.get("finder", "gpumem");
    gm::mem::FinderOptions opt;
    opt.min_length = cfg.min_length;
    opt.sparseness =
        (finder_name == "sparsemem" || finder_name == "essamem") ? 4 : 1;
    const bool host_finder = finder_name == "copmem" ||
                             finder_name == "slamem" ||
                             finder_name == "slamem-lazy";
    if (loaded != nullptr && !host_finder && finder_name != "gpumem") {
      throw gm::util::InputError(
          "--load-index serves the gpumem, copmem, and slamem finders only");
    }
    gm::util::Timer index_timer;
    // Declared before the finder, which borrows them, and the cache after
    // the pool, whose device holds its rows.
    std::optional<gm::core::DevicePool> pool;
    std::unique_ptr<gm::serve::DeviceRowIndexCache> cache;
    std::unique_ptr<gm::mem::MemFinder> finder;
    gm::core::GpumemFinder* gpumem = nullptr;
    if (host_finder) {
      // Adopts the artifact's copMEM / FM-index section when it has one.
      finder = gm::store::open_host_finder(
          finder_name, ref, opt, loaded ? loaded->header().seed_len : 0,
          loaded.get());
    } else if (finder_name == "gpumem") {
      auto g = std::make_unique<gm::core::GpumemFinder>(cfg.backend);
      g->mutable_config() = cfg;
      if (loaded == nullptr) {
        g->build_index(ref, opt);
      } else {
        loaded->throw_if_geometry_mismatch(cfg);
        if (cfg.backend == gm::core::Backend::kNative) {
          g->adopt_index(ref, opt, loaded->native_index());
        } else {
          // Cold rows upload from the artifact instead of running the
          // Algorithm 1 build kernels.
          pool.emplace(cfg, 1, ref);
          cache = std::make_unique<gm::serve::DeviceRowIndexCache>(
              pool->device(0), cfg, /*ref_id=*/1);
          cache->back_with_artifact(loaded);
          pool->attach(0, cache.get());
          g->adopt_index(opt, *pool);
        }
      }
      gpumem = g.get();
      finder = std::move(g);
    } else {
      finder = gm::mem::create_finder(finder_name);
      finder->build_index(ref, opt);
    }
    std::cerr << "[" << finder->name() << "] index built in "
              << index_timer.seconds() << " s\n";

    std::ofstream file_out;
    std::ostream* os = &std::cout;
    if (cli.has("out")) {
      file_out.open(cli.get("out", ""));
      if (!file_out) {
        throw gm::util::InputError("cannot open --out file " +
                                   cli.get("out", ""));
      }
      os = &file_out;
    }

    for (const auto& record : queries) {
      gm::util::Timer match_timer;
      auto mems = finder->find(record.sequence);
      if (mum) mems = gm::mem::filter_rare_matches(mems, ref, record.sequence);
      std::cerr << "[" << record.name << "] " << mems.size() << " matches in "
                << match_timer.seconds() << " s\n";
      if (print_stats && gpumem != nullptr) {
        const auto& st = gpumem->last_stats();
        std::cerr << "[stats] index " << st.index_seconds << " s, match "
                  << st.match_seconds << " s (host stitch "
                  << st.host_stitch_seconds << " s), " << st.kernels_launched
                  << " kernel launches, " << st.mem_count << " MEMs\n";
        for (const auto& ks : st.kernel_breakdown) {
          std::cerr << "[stats]   " << ks.label << ": " << ks.seconds
                    << " s over " << ks.launches << " launch"
                    << (ks.launches == 1 ? "" : "es") << '\n';
        }
      }
      gm::mem::write_mummer(*os, record.name, mems);

      if (cli.get_bool("both-strands", false)) {
        const auto rc = record.sequence.reverse_complement();
        auto rc_mems = finder->find(rc);
        if (mum) rc_mems = gm::mem::filter_rare_matches(rc_mems, ref, rc);
        gm::mem::write_mummer(*os, record.name, rc_mems, /*reverse=*/true);
      }
    }

    obs.write(std::cerr);
    return 0;
  } catch (const gm::util::InputError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
