#include "mem/copmem.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "mem/common.h"
#include "mem/sharded_find.h"
#include "util/timer.h"

namespace gm::mem {

namespace {

/// Largest k₂ <= limit/k₁ with gcd(k₁, k₂) = 1 (>= 1: k₂ = 1 always works).
std::uint32_t derive_k2(std::uint32_t limit, std::uint32_t k1) {
  std::uint32_t k2 = std::max<std::uint32_t>(1, limit / k1);
  while (std::gcd(k1, k2) != 1) --k2;
  return k2;
}

}  // namespace

CopMemFinder::Params CopMemFinder::choose_params(std::uint32_t min_length,
                                                 unsigned seed_len) {
  if (seed_len == 0 || seed_len > 16 || seed_len > min_length) {
    throw std::invalid_argument(
        "CopMemFinder: need 1 <= seed_len <= min(min_length, 16), got "
        "seed_len " +
        std::to_string(seed_len) + " with min_length " +
        std::to_string(min_length));
  }
  // L1 = number of K-mer start positions inside a MEM of exactly length L;
  // the sampling lattice period k1*k2 must not exceed it.
  const std::uint32_t L1 = min_length - seed_len + 1;
  std::uint32_t k1 = static_cast<std::uint32_t>(std::max(
      1.0, std::sqrt(static_cast<double>(L1))));
  while ((k1 + 1) * (k1 + 1) <= L1) ++k1;
  while (k1 > 1 && k1 * k1 > L1) --k1;
  return {seed_len, k1, derive_k2(L1, k1)};
}

unsigned CopMemFinder::auto_seed_len(std::size_t ref_bases,
                                     std::uint32_t min_length) {
  // ~log4(ref size): keeps the 4^K bucket table proportional to the payload.
  const unsigned bits = static_cast<unsigned>(std::bit_width(ref_bases + 1));
  const unsigned k = std::clamp(bits / 2, 1u, 12u);
  return std::min<unsigned>(k, std::min<std::uint32_t>(min_length, 16));
}

void CopMemFinder::build_index(const seq::Sequence& ref,
                               const FinderOptions& opt) {
  validate_finder_options("CopMemFinder", opt);
  const unsigned K = requested_seed_len_ != 0
                         ? requested_seed_len_
                         : auto_seed_len(ref.size(), opt.min_length);
  params_ = choose_params(opt.min_length, K);  // validates K against L
  ref_ = &ref;
  opt_ = opt;
  util::Timer timer;
  idx_ = std::make_unique<index::KmerIndex>(ref, 0, ref.size(), K, params_.k1);
  build_seconds_ = timer.seconds();
}

void CopMemFinder::adopt_index(const seq::Sequence& ref,
                               const FinderOptions& opt,
                               index::KmerIndex idx) {
  validate_finder_options("CopMemFinder", opt);
  const unsigned K = idx.seed_len();
  if (K > 16 || K > opt.min_length) {
    throw std::invalid_argument(
        "CopMemFinder: adopted index seed_len " + std::to_string(K) +
        " exceeds min(min_length, 16) with min_length " +
        std::to_string(opt.min_length));
  }
  const std::uint32_t L1 = opt.min_length - K + 1;
  const std::uint32_t k1 = idx.step();
  if (k1 > L1) {
    throw std::invalid_argument(
        "CopMemFinder: adopted index step " + std::to_string(k1) +
        " exceeds L - K + 1 = " + std::to_string(L1) +
        " — no query sampling rate can guarantee MEM coverage");
  }
  ref_ = &ref;
  opt_ = opt;
  params_ = {K, k1, derive_k2(L1, k1)};
  idx_ = std::make_unique<index::KmerIndex>(std::move(idx));
  build_seconds_ = 0.0;
}

std::vector<Mem> CopMemFinder::find(const seq::Sequence& query) const {
  if (!idx_) throw std::logic_error("CopMemFinder: no index built");
  const std::uint32_t L = opt_.min_length;
  const unsigned K = params_.seed_len;
  const std::uint32_t k2 = params_.k2;
  // Sampled pairs on a diagonal are k1*k2 apart (gcd(k1,k2)=1, CRT), so the
  // first-lattice-point dedupe runs on that grid.
  const std::uint32_t grid = params_.k1 * params_.k2;
  const std::size_t probes =
      query.size() < K ? 0 : (query.size() - K) / k2 + 1;
  auto probe = [&](std::size_t begin, std::size_t end, std::vector<Mem>& out) {
    for (std::size_t s = begin; s < end; ++s) {
      const std::uint32_t j = static_cast<std::uint32_t>(s * k2);
      for (const std::uint32_t p : idx_->lookup(query.kmer(j, K))) {
        emit_sampled_candidate(*ref_, query, p, j, grid, L, out);
      }
    }
  };
  return find_sharded(*ref_, query, opt_, probes, probe, last_seconds_,
                      drop_candidate_);
}

}  // namespace gm::mem
