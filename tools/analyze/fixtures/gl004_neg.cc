// gl-analyze-expect: clean
//
// Pointers as mapped values are fine: the order follows the integer keys.

#include <map>

namespace fixture {

struct Node;

void Owners() {
  std::map<int, Node*> owner;
  (void)owner;
}

}  // namespace fixture
