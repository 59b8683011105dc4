#include "mem/mem.h"

#include <algorithm>

namespace gm::mem {

void sort_mems(std::vector<Mem>& mems) { std::sort(mems.begin(), mems.end()); }

void sort_mems_diagonal(std::vector<Mem>& mems) {
  std::sort(mems.begin(), mems.end(), [](const Mem& a, const Mem& b) {
    if (a.diagonal() != b.diagonal()) return a.diagonal() < b.diagonal();
    if (a.q != b.q) return a.q < b.q;
    return a.len < b.len;
  });
}

void sort_unique(std::vector<Mem>& mems) {
  sort_mems(mems);
  mems.erase(std::unique(mems.begin(), mems.end()), mems.end());
}

std::string to_string(const Mem& m) {
  // Appended piecewise: GCC 12 reports a false -Wrestrict on
  // `"literal" + std::string&&` (operator+ inlines an insert at 0).
  std::string s = "(";
  s += std::to_string(m.r);
  s += ", ";
  s += std::to_string(m.q);
  s += ", ";
  s += std::to_string(m.len);
  s += ")";
  return s;
}

}  // namespace gm::mem
