#include "checker.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <unordered_map>

namespace pb {
namespace {

constexpr std::uint64_t kBase = 0x9E3779B97F4A7C15ull;

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string describe(const Triple& m) {
  return "(r=" + std::to_string(m.r) + ", q=" + std::to_string(m.q) +
         ", len=" + std::to_string(m.len) + ")";
}

bool is_n(char c) { return c == 'N' || c == 'n'; }

}  // namespace

LmerTable::LmerTable(const std::string& ref, std::uint32_t L)
    : ref_(ref), L_(L) {
  if (ref.size() < L) return;
  std::uint64_t top = 1;  // kBase^(L-1)
  for (std::uint32_t i = 1; i < L; ++i) top *= kBase;
  std::uint64_t h = 0;
  std::size_t last_n = static_cast<std::size_t>(-1);  // last N seen
  entries_.reserve(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (i >= L) h -= top * static_cast<unsigned char>(ref[i - L]);
    h = h * kBase + static_cast<unsigned char>(ref[i]);
    if (is_n(ref[i])) last_n = i;
    if (i + 1 >= L) {
      const std::size_t start = i + 1 - L;
      if (last_n == static_cast<std::size_t>(-1) || last_n < start) {
        entries_.emplace_back(h, static_cast<std::uint32_t>(start));
      }
    }
  }
  std::sort(entries_.begin(), entries_.end());
}

std::uint64_t LmerTable::hash(const std::string& s, std::size_t j) const {
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < L_; ++k) {
    h = h * kBase + static_cast<unsigned char>(s[j + k]);
  }
  return h;
}

std::vector<std::uint32_t> LmerTable::occurrences(const std::string& s,
                                                  std::size_t j) const {
  std::vector<std::uint32_t> out;
  if (j + L_ > s.size()) return out;
  for (std::size_t k = 0; k < L_; ++k) {
    if (is_n(s[j + k])) return out;
  }
  const std::uint64_t h = hash(s, j);
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(),
      std::pair<std::uint64_t, std::uint32_t>{h, 0});
  for (; it != entries_.end() && it->first == h; ++it) {
    if (std::memcmp(ref_.data() + it->second, s.data() + j, L_) == 0) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::string check_sound(const std::string& ref, const std::string& query,
                        const std::vector<Triple>& mems, std::uint32_t L) {
  std::vector<Triple> sorted = mems;
  std::sort(sorted.begin(), sorted.end(), [](const Triple& a, const Triple& b) {
    return std::tie(a.r, a.q, a.len) < std::tie(b.r, b.q, b.len);
  });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].r == sorted[i - 1].r && sorted[i].q == sorted[i - 1].q) {
      return "duplicate MEM " + describe(sorted[i]);
    }
  }
  for (const Triple& m : mems) {
    if (m.len < L) return "MEM shorter than L " + describe(m);
    if (std::size_t{m.r} + m.len > ref.size() ||
        std::size_t{m.q} + m.len > query.size()) {
      return "MEM out of range " + describe(m);
    }
    for (std::uint32_t k = 0; k < m.len; ++k) {
      const char a = ref[m.r + k];
      if (a != query[m.q + k] || is_n(a)) {
        return "bases differ at offset " + std::to_string(k) + " of " +
               describe(m);
      }
    }
    if (m.r > 0 && m.q > 0 && ref[m.r - 1] == query[m.q - 1] &&
        !is_n(ref[m.r - 1])) {
      return "not left-maximal " + describe(m);
    }
    const std::size_t re = std::size_t{m.r} + m.len;
    const std::size_t qe = std::size_t{m.q} + m.len;
    if (re < ref.size() && qe < query.size() && ref[re] == query[qe] &&
        !is_n(ref[re])) {
      return "not right-maximal " + describe(m);
    }
  }
  return {};
}

std::string check_complete(const std::string& query,
                           const std::vector<Triple>& mems,
                           const LmerTable& table,
                           const std::vector<std::uint32_t>& positions) {
  // diagonal -> MEMs on it, ordered by query start
  std::unordered_map<std::int64_t, std::vector<Triple>> by_diag;
  for (const Triple& m : mems) {
    by_diag[std::int64_t{m.r} - std::int64_t{m.q}].push_back(m);
  }
  for (auto& [d, v] : by_diag) {
    std::sort(v.begin(), v.end(),
              [](const Triple& a, const Triple& b) { return a.q < b.q; });
  }
  const std::uint32_t L = table.L();
  for (const std::uint32_t j : positions) {
    for (const std::uint32_t i : table.occurrences(query, j)) {
      const std::int64_t d = std::int64_t{i} - std::int64_t{j};
      bool covered = false;
      const auto it = by_diag.find(d);
      if (it != by_diag.end()) {
        const auto& v = it->second;
        auto up = std::upper_bound(
            v.begin(), v.end(), j,
            [](std::uint32_t x, const Triple& m) { return x < m.q; });
        if (up != v.begin()) {
          const Triple& m = *(up - 1);
          covered = std::size_t{j} + L <= std::size_t{m.q} + m.len;
        }
      }
      if (!covered) {
        return "match R[" + std::to_string(i) + ", +" + std::to_string(L) +
               ") = Q[" + std::to_string(j) + ", +" + std::to_string(L) +
               ") lies in no reported MEM";
      }
    }
  }
  return {};
}

std::vector<std::uint32_t> sample_positions(std::size_t query_len,
                                            std::uint32_t L, std::size_t count,
                                            std::uint64_t seed) {
  std::vector<std::uint32_t> out;
  if (query_len < L) return out;
  const std::uint64_t span = query_len - L + 1;
  std::uint64_t x = seed;
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(static_cast<std::uint32_t>(splitmix(x) % span));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string self_test(const std::string& ref, const std::string& query,
                      const std::vector<Triple>& mems, const LmerTable& table,
                      const std::vector<std::uint32_t>& positions,
                      std::uint64_t seed) {
  if (mems.empty()) return "self-test needs a non-empty output";
  std::uint64_t x = seed ^ 0x5E1F7E57ull;
  const std::uint32_t L = table.L();
  const auto rejected = [&](const std::vector<Triple>& damaged,
                            const std::vector<std::uint32_t>& at) {
    return !check_sound(ref, query, damaged, L).empty() ||
           !check_complete(query, damaged, table, at).empty();
  };

  // One MEM dropped: its own first L-mer is among the checked positions.
  {
    std::vector<Triple> damaged = mems;
    const std::size_t k = splitmix(x) % damaged.size();
    std::vector<std::uint32_t> at = positions;
    at.push_back(damaged[k].q);
    damaged.erase(damaged.begin() + static_cast<std::ptrdiff_t>(k));
    if (!rejected(damaged, at)) return "a dropped MEM was not rejected";
  }
  // One MEM shifted by a base on both sequences.
  {
    std::vector<Triple> damaged = mems;
    Triple& m = damaged[splitmix(x) % damaged.size()];
    ++m.r;
    ++m.q;
    if (!rejected(damaged, positions)) return "a shifted MEM was not rejected";
  }
  // One MEM shortened by a base.
  {
    std::vector<Triple> damaged = mems;
    --damaged[splitmix(x) % damaged.size()].len;
    if (!rejected(damaged, positions)) {
      return "a shortened MEM was not rejected";
    }
  }
  return {};
}

}  // namespace pb
