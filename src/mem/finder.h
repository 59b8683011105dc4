// Abstract interface shared by every MEM extraction tool in the project.
//
// Index construction (Table III) and matching (Table IV) are separate calls
// so the benchmark harness can time them the way the paper does; I/O never
// happens inside either call.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/mem.h"
#include "seq/sequence.h"

namespace gm::mem {

struct FinderOptions {
  std::uint32_t min_length = 20;  ///< L, the MEM length threshold
  std::uint32_t threads = 1;      ///< τ for tools with shared-memory support
  std::uint32_t sparseness = 1;   ///< index sparseness K (sparse/essa tools)

  /// For timing studies on hosts with fewer than `threads` cores the
  /// sharded executor can run shards sequentially and report max-shard time
  /// (see DESIGN.md). true = always run shards sequentially.
  bool sequential_shards = false;

  /// Long-MEM mode for the FM-index (slaMEM-class) finder: defer LCP
  /// widening and locate() to windows already proven to reach length >= L,
  /// and skip dead query regions outright instead of maintaining full
  /// matching statistics. Output is bit-identical to the eager sweep; the
  /// win grows with L (see PERFORMANCE.md "Long-MEM mode"). Ignored by
  /// finders without a lazy path.
  bool lazy_lcp = false;
};

/// Entry-point option validation shared by every finder: min_length and
/// sparseness are divisors/moduli in the sampling arithmetic, so zero values
/// must fail deterministically here instead of reaching a division- or
/// modulo-by-zero downstream. Finders with a sparseness-coupled index depth
/// (sparseMEM/essaMEM-class) pass `sparse_index = true` to additionally
/// enforce sparseness <= min_length (the depth L - K + 1 must stay >= 1).
inline void validate_finder_options(const std::string& who,
                                    const FinderOptions& opt,
                                    bool sparse_index = false) {
  if (opt.min_length == 0) {
    throw std::invalid_argument(who + ": min_length must be >= 1");
  }
  if (opt.sparseness == 0) {
    throw std::invalid_argument(who + ": sparseness must be >= 1");
  }
  if (sparse_index && opt.sparseness > opt.min_length) {
    throw std::invalid_argument(who +
                                ": need 1 <= sparseness <= min_length");
  }
}

class MemFinder {
 public:
  virtual ~MemFinder() = default;

  virtual std::string name() const = 0;

  /// Builds (or rebuilds) the reference index. Must be called before find().
  virtual void build_index(const seq::Sequence& ref,
                           const FinderOptions& opt) = 0;

  /// Extracts all MEMs of length >= opt.min_length between the indexed
  /// reference and `query`, in canonical sorted order with no duplicates.
  virtual std::vector<Mem> find(const seq::Sequence& query) const = 0;

  /// find() at a per-call minimum length, which must be >= the build-time
  /// FinderOptions::min_length. MEM maximality does not depend on L, so the
  /// default — find() filtered to len >= min_length — is exact; finders
  /// whose index is L-independent override it to do less work.
  virtual std::vector<Mem> find_at(const seq::Sequence& query,
                                   std::uint32_t min_length) const {
    std::vector<Mem> out = find(query);
    std::erase_if(out,
                  [min_length](const Mem& m) { return m.len < min_length; });
    return out;
  }

  /// Modeled parallel seconds of the last find() (max shard time); equals
  /// measured wall time for single-threaded tools. See DESIGN.md.
  virtual double last_find_modeled_seconds() const { return 0.0; }

  /// Approximate index footprint, for memory reporting.
  virtual std::size_t index_bytes() const { return 0; }
};

}  // namespace gm::mem
