// gl-analyze-expect: clean
//
// Unordered containers whose order never matters: a membership test, a loop
// over a sorted snapshot, and a loop over an ordered member that merely
// shares its name with an unordered local.

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stable_map.h"

namespace fixture {

int Membership() {
  std::unordered_set<int> seen;
  seen.insert(3);
  return static_cast<int>(seen.count(3));
}

void SortedSnapshot() {
  std::unordered_map<int, double> weights;
  for (const auto& [k, v] : gl::SortedItems(weights)) { (void)k; (void)v; }
}

struct Impact {
  std::vector<int> displaced;
};

void MemberChain(const Impact& impact) {
  std::unordered_set<int> displaced;
  for (const int c : impact.displaced) displaced.insert(c);
}

}  // namespace fixture
