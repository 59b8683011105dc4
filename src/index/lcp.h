// LCP arrays over (possibly sparse) suffix arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/sequence.h"

namespace gm::index {

/// Linear-time LCP for a *full* suffix array (the Kasai et al. result, built
/// by the Φ/PLCP method: two n-word arrays, text-order LCE probes).
/// lcp[i] = length of the common prefix of suffixes sa[i-1] and sa[i];
/// lcp[0] = 0. Output length equals sa length.
std::vector<std::uint32_t> build_lcp_kasai(const seq::Sequence& seq,
                                           const std::vector<std::uint32_t>& sa);

/// LCP for an arbitrary sorted suffix-position array (e.g. a sparse suffix
/// array) by direct word-parallel comparison of adjacent entries. O(sum of
/// adjacent LCP / 32) — the standard construction for sparse SAs.
std::vector<std::uint32_t> build_lcp_direct(const seq::Sequence& seq,
                                            const std::vector<std::uint32_t>& sa);

}  // namespace gm::index
