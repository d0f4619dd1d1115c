// gl-analyze-expect: GL001
//
// Loops that follow hash-bucket order: a range-for over a local unordered
// map, over the local a function returning one initialized, over an element
// of a vector of unordered maps, an iterator loop through .begin(), and a
// member declared in the class body (a header, in real code) iterated out
// of line.

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

void RangeFor() {
  std::unordered_map<int, double> weights;
  for (const auto& [k, v] : weights) { (void)k; (void)v; }
}

std::unordered_map<int, int> Neighbors();

void ViaFunction() {
  const auto groups = Neighbors();
  for (const auto& kv : groups) { (void)kv; }
}

void VectorElement() {
  std::vector<std::unordered_map<int, int>> votes(4);
  for (const auto& [old, n] : votes[0]) { (void)old; (void)n; }
}

void IteratorLoop() {
  std::unordered_set<int> seen;
  for (auto it = seen.begin(); it != seen.end(); ++it) { (void)*it; }
}

class Index {
 public:
  int Sum() const;

 private:
  std::unordered_map<int, int> counts_;
};

int Index::Sum() const {
  int total = 0;
  for (const auto& [k, n] : counts_) total += k * n;
  return total;
}

}  // namespace fixture
