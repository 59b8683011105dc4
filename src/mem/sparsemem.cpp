#include "mem/sparsemem.h"

#include <stdexcept>

#include "mem/common.h"
#include "mem/sharded_find.h"

namespace gm::mem {

void SparseMemFinder::build_index(const seq::Sequence& ref,
                                  const FinderOptions& opt) {
  validate_finder_options("SparseMemFinder", opt, /*sparse_index=*/true);
  ref_ = &ref;
  opt_ = opt;
  ssa_ = std::make_unique<index::SparseSuffixArray>(ref, opt.sparseness,
                                                    /*sort_based=*/true);
}

std::vector<Mem> SparseMemFinder::find(const seq::Sequence& query) const {
  if (!ssa_) throw std::logic_error("SparseMemFinder: no index built");
  const std::uint32_t L = opt_.min_length;
  const std::uint32_t K = opt_.sparseness;
  const std::uint32_t depth = L - K + 1;  // sampled suffixes inside a MEM of
                                          // length >= L match at least this
  const std::size_t probes =
      query.size() < depth ? 0 : query.size() - depth + 1;
  auto probe = [&](std::size_t begin, std::size_t end, std::vector<Mem>& out) {
    for (std::size_t j = begin; j < end; ++j) {
      const index::SaInterval iv = ssa_->interval(*ref_, query, j, depth);
      for (std::uint32_t i = iv.lo; i < iv.hi; ++i) {
        emit_sampled_candidate(*ref_, query, ssa_->positions()[i],
                               static_cast<std::uint32_t>(j), K, L, out);
      }
    }
  };
  return find_sharded(*ref_, query, opt_, probes, probe, last_seconds_);
}

}  // namespace gm::mem
