// Property-based differential fuzzing harness for MEM extraction.
//
// One sampled FuzzCase is a full problem instance: reference and query text
// (ACGT plus lowercase soft-masking and non-ACGT 'N' bases), the paper's
// problem parameters (L, ls, delta_s under Eq. 1), and the device geometry
// (tau, n_block, device count) — with the sampler biased toward the
// boundaries where tiling bugs live (sequence lengths just off tile_len
// multiples, planted matches straddling tile boundaries, step at the Eq. 1
// maximum).
//
// run_case executes every registered finder (including the copMEM
// double-sampled finder and the lazy long-MEM slaMEM sweep), the SIMT
// pipeline in all
// five serving shapes (plain run, multi-stream run, cached-index run,
// multi-device run, the batched MemService path), and a persistent-artifact
// round trip (serialize to a *.gmidx image, reopen through the verifying
// store reader, extract from the loaded index) against the naive ground
// truth and reports every
// divergence: a missing MEM (completeness), an extra or non-maximal MEM
// (soundness, double-checked via mem::validate_mems), or an execution error.
//
// shrink_case minimizes a failing case — geometry first (one device, one
// block, two threads, step 1), then ddmin over both sequences — so a fuzz
// failure lands as a small human-readable reproducer, serialized together
// with its provenance seed for exact replay (see docs/TESTING.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gm::fuzz {

/// One complete differential-testing instance. Sequences are ASCII
/// (case-insensitive ACGT; anything else is an invalid base under the
/// mask policy — see seq::Sequence::from_string_lenient).
struct FuzzCase {
  std::string ref;
  std::string query;

  std::uint32_t min_len = 8;      ///< L
  std::uint32_t seed_len = 4;     ///< ls
  std::uint32_t step = 0;         ///< delta_s; 0 = Eq. 1 maximum
  std::uint32_t threads = 2;      ///< tau (power of two)
  std::uint32_t tile_blocks = 1;  ///< n_block
  std::uint32_t devices = 1;      ///< simulated device pool size

  std::uint64_t seed = 0;  ///< provenance: RNG seed that produced this case

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

/// Deliberate defect injected into the pipeline-backed oracles, used to
/// prove the harness catches and shrinks real bug shapes (self-test).
enum class Fault {
  kNone = 0,
  /// Simulates a broken out-tile stitch: every pipeline-produced MEM whose
  /// reference interval crosses a tile_len boundary is dropped.
  kStitchDropBoundary,
  /// Simulates a stream-overlap handoff bug: the overlapped pipeline drops
  /// every MEM whose *query* interval crosses a tile (column) boundary —
  /// exactly the matches adjacent worker streams must stitch. Applied to the
  /// simt-overlapped oracle only; all other modes stay correct, so the
  /// harness must localize the failure to the overlapped path.
  kOverlapDropColumnBoundary,
  /// Simulates on-disk index corruption: one byte is flipped inside the
  /// largest section payload of the serialized artifact before the
  /// store-roundtrip oracle reopens it. The store reader must reject the
  /// image deterministically (checksum mismatch), which the harness
  /// reports as an "error" divergence localized to store-roundtrip.
  kStoreCorruptSection,
  /// Simulates a lost candidate in the copMEM double-sampled finder: the
  /// first merged candidate MEM is silently dropped before clipping
  /// (mem::CopMemFinder::inject_candidate_drop). Applied to the copmem
  /// oracle only, so the harness must localize the "missing" divergence
  /// there and shrink it to a minimal reproducer.
  kCopmemDropCandidate,
  /// Simulates a skipped survivor in the lazy long-MEM slaMEM sweep: the
  /// first window confirmed to reach depth >= L is dropped before the
  /// deferred widen/locate pass (mem::SlaMemFinder::inject_lazy_skip).
  /// Applied to the lazy-slamem oracle only, so the harness must localize
  /// the "missing" divergence there and shrink it.
  kLazySkipConfirmed,
};

const char* to_string(Fault fault);
std::optional<Fault> fault_from_string(const std::string& name);

/// One disagreement between an implementation and the ground truth.
struct Divergence {
  std::string impl;    ///< e.g. "mummer", "simt-plain", "serve"
  std::string kind;    ///< "missing" | "extra" | "unsound" | "error"
  std::string detail;  ///< human-readable specifics (first offending MEM)
};

struct CaseResult {
  std::vector<Divergence> divergences;
  std::size_t truth_mems = 0;  ///< ground-truth MEM count
  std::size_t impls_run = 0;   ///< oracle executions that completed

  bool ok() const { return divergences.empty(); }
};

/// Renders a result's divergences one per line (empty string when ok).
std::string describe(const CaseResult& result);

/// Samples a random case. The caller owns seeding policy: fork the master
/// RNG per case and stamp FuzzCase::seed for provenance.
FuzzCase sample_case(util::Xoshiro256& rng);

/// Runs the full oracle over `c`: naive ground truth, every CPU finder,
/// gpumem-native, the store artifact round trip, and the SIMT pipeline in
/// plain / cached (cold + warm) / multi-device / MemService modes. Throws
/// std::invalid_argument when the
/// case's config itself is invalid (possible for hand-edited repro files;
/// sampled cases always validate).
CaseResult run_case(const FuzzCase& c, Fault fault = Fault::kNone);

/// Minimizes a failing case while it keeps failing under `fault`:
/// geometry reduction first, then ddmin chunk deletion over ref and query.
/// Runs at most `max_evals` oracle evaluations; always returns a case that
/// still fails (at worst the input itself).
FuzzCase shrink_case(const FuzzCase& failing, Fault fault = Fault::kNone,
                     std::size_t max_evals = 500);

/// Key=value reproducer text, replayable via parse_case / gpumem_fuzz
/// --replay. Sequences are serialized as-is (lowercase and N preserved).
std::string serialize_case(const FuzzCase& c);

/// Parses serialize_case output (or a hand-written file of the same shape).
/// Returns std::nullopt and fills *error on malformed input.
std::optional<FuzzCase> parse_case(std::istream& in,
                                   std::string* error = nullptr);

}  // namespace gm::fuzz
