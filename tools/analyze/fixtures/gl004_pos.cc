// gl-analyze-expect: GL004
//
// An ordered map keyed on a pointer iterates in allocation-address order,
// which changes from run to run.

#include <map>

namespace fixture {

struct Node;

void Depths() {
  std::map<Node*, int> depth;
  (void)depth;
}

}  // namespace fixture
