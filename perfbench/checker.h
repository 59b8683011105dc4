// MEM output checker that shares no code with the library: it works on the
// ASCII sequences the benchmark generated (before the program parsed them)
// and on plain (r, q, len) triples.
//
//  * check_sound: every triple is in range, at least L long, byte-identical
//    on both sequences, free of N, and left- and right-maximal. An N never
//    matches, not even another N.
//  * check_complete: for each sampled query position j, every reference
//    occurrence of Q[j, j+L) (found through the checker's own rolling hash of
//    the reference) lies inside a reported MEM on the same diagonal.
//  * self_test: damages a copy of a real output three ways (one MEM dropped,
//    one shifted by a base, one shortened) and requires that each copy is
//    rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Triple {
  std::uint32_t r = 0;
  std::uint32_t q = 0;
  std::uint32_t len = 0;
  bool operator==(const Triple&) const = default;
};

/// Every L-mer of a reference without N, keyed by a 64-bit polynomial hash.
class LmerTable {
 public:
  LmerTable(const std::string& ref, std::uint32_t L);
  /// Reference positions i with R[i, i+L) == s[j, j+L) (byte-verified).
  std::vector<std::uint32_t> occurrences(const std::string& s,
                                         std::size_t j) const;
  std::uint32_t L() const { return L_; }

 private:
  std::uint64_t hash(const std::string& s, std::size_t j) const;
  const std::string& ref_;
  std::uint32_t L_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries_;  // sorted
};

/// Empty string when sound; otherwise the first violation.
std::string check_sound(const std::string& ref, const std::string& query,
                        const std::vector<Triple>& mems, std::uint32_t L);

/// Empty string when complete at `positions`; otherwise the first miss.
std::string check_complete(const std::string& query,
                           const std::vector<Triple>& mems,
                           const LmerTable& table,
                           const std::vector<std::uint32_t>& positions);

/// `count` distinct query positions in [0, query_len - L], seeded.
std::vector<std::uint32_t> sample_positions(std::size_t query_len,
                                            std::uint32_t L, std::size_t count,
                                            std::uint64_t seed);

/// Runs both checks on three damaged copies of `mems` (which must pass
/// them as given). Empty string when every copy is rejected.
std::string self_test(const std::string& ref, const std::string& query,
                      const std::vector<Triple>& mems, const LmerTable& table,
                      const std::vector<std::uint32_t>& positions,
                      std::uint64_t seed);

}  // namespace pb
