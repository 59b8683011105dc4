#include "index/lcp.h"

namespace gm::index {

std::vector<std::uint32_t> build_lcp_kasai(const seq::Sequence& seq,
                                           const std::vector<std::uint32_t>& sa) {
  // Φ construction (Kärkkäinen, Manzini & Puglisi 2009): phi[sa[i]] =
  // sa[i-1] is overwritten in place, in text order, by the permuted LCP
  // plcp[i] (which drops by at most one per step), then read out in SA order.
  const std::size_t n = sa.size();
  std::vector<std::uint32_t> phi(n), lcp(n, 0);
  for (std::size_t i = 1; i < n; ++i) phi[sa[i]] = sa[i - 1];
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == sa[0]) {
      h = 0;
      phi[i] = 0;
      continue;
    }
    h += seq.common_prefix(i + h, seq, phi[i] + h, n);
    phi[i] = static_cast<std::uint32_t>(h);
    if (h > 0) --h;
  }
  for (std::size_t i = 1; i < n; ++i) lcp[i] = phi[sa[i]];
  return lcp;
}

std::vector<std::uint32_t> build_lcp_direct(const seq::Sequence& seq,
                                            const std::vector<std::uint32_t>& sa) {
  std::vector<std::uint32_t> lcp(sa.size(), 0);
  for (std::size_t i = 1; i < sa.size(); ++i) {
    lcp[i] = static_cast<std::uint32_t>(
        seq.common_prefix(sa[i - 1], seq, sa[i], seq.size()));
  }
  return lcp;
}

}  // namespace gm::index
