// Differential oracle: run one case through every implementation and
// compare against the naive ground truth.
//
// Implementations covered per case:
//   naive (truth, self-checked)   mummer   sparsemem   essamem   slamem
//   copmem (double-sampled, with an injectable candidate-drop fault)
//   lazy-slamem (lazy long-MEM sweep, with an injectable skipped-survivor
//   fault; bit-identity with eager slamem is the tentpole claim)
//   gpumem-native                 simt-plain (Engine::run)
//   simt-overlapped (Engine::run at 2-4 worker streams, stream count and
//   scheduler shuffle seed derived from the case seed)
//   simt-cached-cold / -warm (a one-device DevicePool with a
//   DeviceRowIndexCache attached, run twice)
//   multi-device (a transient DevicePool of c.devices cards)
//   serve (MemService, paused batch)
//   serve-routes (MemService with both host routes — copMEM and the lazy
//   long-MEM finder — queried at a seed-derived min_length >= L)
//   store-roundtrip (build_artifact → MappedArtifact::from_buffer →
//   LoadedIndex → run_native_prebuilt; bit-identity through serialization)
//
// Every output set is checked three ways: definition-level soundness via
// mem::validate_mems (under the invalid-base mask policy), completeness
// (no truth MEM missing), and exactness (no extra MEM). All finders emit
// canonical sorted/deduped order, so set comparison is two linear merges.
#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>

#include "core/finders.h"
#include "core/device_pool.h"
#include "core/pipeline.h"
#include "fuzz/fuzz.h"
#include "mem/copmem.h"
#include "mem/registry.h"
#include "mem/slamem.h"
#include "mem/validate.h"
#include "seq/sequence.h"
#include "serve/index_cache.h"
#include "serve/service.h"
#include "simt/device.h"
#include "store/artifact.h"
#include "store/loaded_index.h"

namespace gm::fuzz {

namespace {

core::Config make_config(const FuzzCase& c) {
  core::Config cfg;
  cfg.min_length = c.min_len;
  cfg.seed_len = c.seed_len;
  cfg.step = c.step;
  cfg.threads = c.threads;
  cfg.tile_blocks = c.tile_blocks;
  cfg.backend = core::Backend::kSimt;
  return cfg;
}

/// The injected stitch defect: drop every MEM whose reference interval
/// crosses a tile_len boundary (exactly the matches only host stitching can
/// produce). Applied to pipeline-backed oracles only, so the checker must
/// flag them against the untouched ground truth.
void apply_fault(Fault fault, std::uint32_t tile_len,
                 std::vector<mem::Mem>& mems) {
  if (fault != Fault::kStitchDropBoundary || tile_len == 0) return;
  std::erase_if(mems, [tile_len](const mem::Mem& m) {
    return m.len > 0 && m.r / tile_len != (m.r + m.len - 1) / tile_len;
  });
}

/// The injected stream-overlap defect: drop MEMs whose query interval
/// crosses a tile (column) boundary — the handoff between adjacent worker
/// streams. Only the simt-overlapped oracle calls this.
void apply_overlap_fault(Fault fault, std::uint32_t tile_len,
                         std::vector<mem::Mem>& mems) {
  if (fault != Fault::kOverlapDropColumnBoundary || tile_len == 0) return;
  std::erase_if(mems, [tile_len](const mem::Mem& m) {
    return m.len > 0 && m.q / tile_len != (m.q + m.len - 1) / tile_len;
  });
}

/// The injected storage defect: flip one byte inside the largest section
/// payload of a serialized artifact image (falling back to the section
/// table when every payload is empty). The reader's per-section checksums
/// must turn this into a deterministic StoreError at open.
void apply_store_fault(Fault fault, std::vector<std::uint8_t>& image) {
  if (fault != Fault::kStoreCorruptSection) return;
  store::ArtifactHeader header{};
  std::memcpy(&header, image.data(), sizeof header);
  std::vector<store::SectionEntry> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof header,
              table.size() * sizeof(store::SectionEntry));
  const store::SectionEntry* largest = nullptr;
  for (const store::SectionEntry& e : table) {
    if (e.bytes > 0 && (largest == nullptr || e.bytes > largest->bytes)) {
      largest = &e;
    }
  }
  if (largest != nullptr) {
    image[largest->offset + largest->bytes / 2] ^= 0x5A;
  } else {
    image[sizeof header] ^= 0x5A;  // header/table corruption fallback
  }
}

void check_output(const std::string& impl, const std::vector<mem::Mem>& truth,
                  const std::vector<mem::Mem>& got, const seq::Sequence& ref,
                  const seq::Sequence& query, std::uint32_t min_len,
                  CaseResult& out) {
  ++out.impls_run;
  const mem::ValidationReport report =
      mem::validate_mems(ref, query, got, min_len);
  if (!report.ok()) {
    out.divergences.push_back({impl, "unsound", report.first_error});
  }
  std::vector<mem::Mem> missing, extra;
  std::set_difference(truth.begin(), truth.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), truth.begin(), truth.end(),
                      std::back_inserter(extra));
  if (!missing.empty()) {
    out.divergences.push_back(
        {impl, "missing",
         std::to_string(missing.size()) + " of " +
             std::to_string(truth.size()) +
             " truth MEM(s) absent; first: " + mem::to_string(missing.front())});
  }
  if (!extra.empty()) {
    out.divergences.push_back(
        {impl, "extra",
         std::to_string(extra.size()) +
             " MEM(s) not in truth; first: " + mem::to_string(extra.front())});
  }
}

}  // namespace

const char* to_string(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kStitchDropBoundary: return "stitch-drop";
    case Fault::kOverlapDropColumnBoundary: return "overlap-drop";
    case Fault::kStoreCorruptSection: return "store-corrupt";
    case Fault::kCopmemDropCandidate: return "copmem-drop";
    case Fault::kLazySkipConfirmed: return "lazy-skip";
  }
  return "?";
}

std::optional<Fault> fault_from_string(const std::string& name) {
  if (name == "none") return Fault::kNone;
  if (name == "stitch-drop") return Fault::kStitchDropBoundary;
  if (name == "overlap-drop") return Fault::kOverlapDropColumnBoundary;
  if (name == "store-corrupt") return Fault::kStoreCorruptSection;
  if (name == "copmem-drop") return Fault::kCopmemDropCandidate;
  if (name == "lazy-skip") return Fault::kLazySkipConfirmed;
  return std::nullopt;
}

std::string describe(const CaseResult& result) {
  std::ostringstream os;
  for (const Divergence& d : result.divergences) {
    os << d.impl << " [" << d.kind << "]: " << d.detail << '\n';
  }
  return os.str();
}

CaseResult run_case(const FuzzCase& c, Fault fault) {
  CaseResult out;
  const seq::Sequence ref = seq::Sequence::from_string_lenient(c.ref);
  const seq::Sequence query = seq::Sequence::from_string_lenient(c.query);
  const core::Config cfg = make_config(c);
  const core::Config::Geometry geo = cfg.validated();  // throws when invalid

  mem::FinderOptions opt;
  opt.min_length = c.min_len;
  opt.sparseness = 1;  // sparse finders stay exact at K = 1

  // Ground truth: the naive diagonal scan, itself definition-checked.
  std::vector<mem::Mem> truth;
  {
    const auto naive = mem::create_finder("naive");
    naive->build_index(ref, opt);
    truth = naive->find(query);
    out.truth_mems = truth.size();
    ++out.impls_run;
    const auto report = mem::validate_mems(ref, query, truth, c.min_len);
    if (!report.ok()) {
      out.divergences.push_back({"naive", "unsound", report.first_error});
    }
  }

  // CPU baseline finders.
  for (const char* name : {"mummer", "sparsemem", "essamem"}) {
    try {
      const auto finder = mem::create_finder(name);
      finder->build_index(ref, opt);
      check_output(name, truth, finder->find(query), ref, query, c.min_len,
                   out);
    } catch (const std::exception& e) {
      out.divergences.push_back({name, "error", e.what()});
    }
  }

  // The default slaMEM sweep probes for absence only where probes pay,
  // which the sampled L rarely reaches. When it issued none, it also runs
  // at kProbedL, where a 32-long probe kills 9 starts and the first
  // frontier always probes, against the truth at that length; a find there
  // that issues no probe is itself a divergence, so this lane cannot
  // silently fall back to checking the eager recurrence alone.
  try {
    constexpr std::uint32_t kProbedL = 40;
    mem::SlaMemFinder slamem;
    slamem.build_index(ref, opt);
    check_output("slamem", truth, slamem.find(query), ref, query, c.min_len,
                 out);
    if (slamem.last_find_work().probes == 0 && query.size() >= kProbedL) {
      std::vector<mem::Mem> want = truth;
      std::erase_if(want, [](const mem::Mem& m) { return m.len < kProbedL; });
      check_output("slamem", want, slamem.find_at(query, kProbedL), ref,
                   query, kProbedL, out);
      if (slamem.last_find_work().probes == 0) {
        out.divergences.push_back(
            {"slamem", "error", "default sweep issued no probe at L 40"});
      }
    }
  } catch (const std::exception& e) {
    out.divergences.push_back({"slamem", "error", e.what()});
  }

  // copMEM double-sampled finder, with its injectable candidate-drop
  // defect: the fault must surface here as a "missing" divergence while
  // every other oracle stays clean.
  try {
    mem::CopMemFinder copmem;
    copmem.inject_candidate_drop(fault == Fault::kCopmemDropCandidate);
    copmem.build_index(ref, opt);
    check_output("copmem", truth, copmem.find(query), ref, query, c.min_len,
                 out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"copmem", "error", e.what()});
  }

  // The slaMEM sweep probing at every frontier (FinderOptions::lazy_lcp),
  // with its injectable skipped-survivor defect. The fault must surface
  // here as a "missing" divergence while every other oracle (including
  // slamem above) stays clean.
  try {
    mem::SlaMemFinder lazy;
    lazy.inject_lazy_skip(fault == Fault::kLazySkipConfirmed);
    mem::FinderOptions lazy_opt = opt;
    lazy_opt.lazy_lcp = true;
    lazy.build_index(ref, lazy_opt);
    check_output("lazy-slamem", truth, lazy.find(query), ref, query,
                 c.min_len, out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"lazy-slamem", "error", e.what()});
  }

  // Native tiling pipeline (build-once index path).
  try {
    core::GpumemFinder native(core::Backend::kNative);
    native.mutable_config() = cfg;
    native.mutable_config().backend = core::Backend::kNative;
    native.build_index(ref, opt);
    auto got = native.find(query);
    apply_fault(fault, geo.tile_len, got);
    check_output("gpumem-native", truth, got, ref, query, c.min_len, out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"gpumem-native", "error", e.what()});
  }

  const core::Engine engine(cfg);

  // SIMT mode 1: plain Engine::run.
  try {
    auto res = engine.run(ref, query);
    apply_fault(fault, geo.tile_len, res.mems);
    check_output("simt-plain", truth, res.mems, ref, query, c.min_len, out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"simt-plain", "error", e.what()});
  }

  // SIMT mode 2: the pipeline on W > 1 worker streams (W = 1 is
  // simt-plain). Stream count and the scheduler's drain-order shuffle
  // derive from the case seed, so every sampled case exercises a different
  // interleaving — reproducibly.
  try {
    core::Config ocfg = cfg;
    ocfg.overlap_streams = 2 + static_cast<std::uint32_t>(c.seed % 3);
    ocfg.overlap_shuffle_seed = c.seed;
    auto res = core::Engine(ocfg).run(ref, query);
    apply_fault(fault, geo.tile_len, res.mems);
    apply_overlap_fault(fault, geo.tile_len, res.mems);
    check_output("simt-overlapped", truth, res.mems, ref, query, c.min_len,
                 out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"simt-overlapped", "error", e.what()});
  }

  // SIMT mode 3: cached row indexes — cold build, then the warm path that
  // must serve byte-identical indexes.
  try {
    core::DevicePool pool(cfg, 1, ref);
    serve::DeviceRowIndexCache cache(pool.device(0), cfg, /*ref_id=*/1);
    pool.attach(0, &cache);
    auto cold = pool.run(query);
    apply_fault(fault, geo.tile_len, cold.mems);
    check_output("simt-cached-cold", truth, cold.mems, ref, query, c.min_len,
                 out);
    auto warm = pool.run(query);
    apply_fault(fault, geo.tile_len, warm.mems);
    check_output("simt-cached-warm", truth, warm.mems, ref, query, c.min_len,
                 out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"simt-cached", "error", e.what()});
  }

  // SIMT mode 4: multi-device row partitioning.
  try {
    auto res = core::DevicePool(cfg, c.devices, ref).run(query);
    apply_fault(fault, geo.tile_len, res.mems);
    check_output("multi-device", truth, res.mems, ref, query, c.min_len, out);
  } catch (const std::exception& e) {
    out.divergences.push_back({"multi-device", "error", e.what()});
  }

  // Artifact round trip: serialize the full index to an in-memory *.gmidx
  // image, reopen it through the verifying reader, and extract with the
  // loaded (not rebuilt) row indexes. Must be bit-identical to the truth —
  // and under kStoreCorruptSection the reader must reject the image
  // instead of producing MEMs. Skipped for empty references (nothing to
  // serialize; the other oracles still cover the case).
  if (!ref.empty()) {
    try {
      std::vector<std::uint8_t> image = store::build_artifact(ref, cfg);
      apply_store_fault(fault, image);
      const store::LoadedIndex loaded(
          store::MappedArtifact::from_buffer(std::move(image), "<fuzz>"));
      core::Config ncfg = cfg;
      ncfg.backend = core::Backend::kNative;
      auto res = core::Engine(ncfg).run_native_prebuilt(
          loaded.reference(), query, loaded.native_index());
      apply_fault(fault, geo.tile_len, res.mems);
      check_output("store-roundtrip", truth, res.mems, ref, query, c.min_len,
                   out);
    } catch (const std::exception& e) {
      out.divergences.push_back({"store-roundtrip", "error", e.what()});
    }
  }

  // SIMT mode 5: the batched serving path end to end.
  try {
    serve::ServiceConfig scfg;
    scfg.engine = cfg;
    scfg.devices = c.devices;
    scfg.start_paused = true;
    serve::MemService service(scfg, ref);
    serve::QueryRequest req;
    req.id = "fuzz";
    req.query = query;
    auto fut = service.submit(std::move(req));
    service.resume();
    serve::QueryResult r = fut.get();
    service.shutdown();
    if (r.status != serve::QueryStatus::kOk) {
      out.divergences.push_back(
          {"serve", "error",
           std::string(serve::to_string(r.status)) +
               (r.error.empty() ? "" : ": " + r.error)});
    } else {
      apply_fault(fault, geo.tile_len, r.mems);
      check_output("serve", truth, r.mems, ref, query, c.min_len, out);
    }
  } catch (const std::exception& e) {
    out.divergences.push_back({"serve", "error", e.what()});
  }

  // Serve host routes: both resident host finders in one service, as
  // gpumem_serve --fast-index --long-mem runs them. The seed picks the
  // long-MEM threshold and the request's min_length, so either route may
  // answer; its MEMs must be the truth filtered to that length.
  try {
    serve::ServiceConfig scfg;
    scfg.engine = cfg;
    scfg.copmem_fast_index = true;
    scfg.lazy_lcp = true;
    scfg.long_mem_threshold =
        c.min_len + static_cast<std::uint32_t>(c.seed % 8);
    const std::uint32_t len =
        c.min_len + static_cast<std::uint32_t>((c.seed >> 3) % 16);
    serve::MemService service(scfg, ref);
    serve::QueryRequest req;
    req.id = "fuzz-routes";
    req.query = query;
    req.min_length = len;
    const serve::QueryResult r = service.submit(std::move(req)).get();
    if (r.status != serve::QueryStatus::kOk) {
      out.divergences.push_back(
          {"serve-routes", "error",
           std::string(serve::to_string(r.status)) +
               (r.error.empty() ? "" : ": " + r.error)});
    } else {
      std::vector<mem::Mem> want = truth;
      std::erase_if(want, [len](const mem::Mem& m) { return m.len < len; });
      check_output("serve-routes", want, r.mems, ref, query, len, out);
    }
  } catch (const std::exception& e) {
    out.divergences.push_back({"serve-routes", "error", e.what()});
  }

  return out;
}

}  // namespace gm::fuzz
