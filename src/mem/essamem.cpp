#include "mem/essamem.h"

#include <stdexcept>

#include "mem/common.h"
#include "mem/sharded_find.h"

namespace gm::mem {

void EssaMemFinder::build_index(const seq::Sequence& ref,
                                const FinderOptions& opt) {
  validate_finder_options("EssaMemFinder", opt, /*sparse_index=*/true);
  ref_ = &ref;
  opt_ = opt;
  esa_ = std::make_unique<index::EnhancedSuffixArray>(ref, opt.sparseness);
}

std::vector<Mem> EssaMemFinder::find(const seq::Sequence& query) const {
  if (!esa_) throw std::logic_error("EssaMemFinder: no index built");
  const std::uint32_t L = opt_.min_length;
  const std::uint32_t K = opt_.sparseness;
  const std::uint32_t depth = L - K + 1;
  const std::size_t probes =
      query.size() < depth ? 0 : query.size() - depth + 1;
  auto probe = [&](std::size_t begin, std::size_t end, std::vector<Mem>& out) {
    for (std::size_t j = begin; j < end; ++j) {
      const auto descent = esa_->descend(query, j, depth);
      if (descent.matched < depth) continue;
      for (std::uint32_t i = descent.interval.lo; i < descent.interval.hi;
           ++i) {
        emit_sampled_candidate(*ref_, query, esa_->positions()[i],
                               static_cast<std::uint32_t>(j), K, L, out);
      }
    }
  };
  return find_sharded(*ref_, query, opt_, probes, probe, last_seconds_);
}

}  // namespace gm::mem
