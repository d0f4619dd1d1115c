// gl-analyze-expect: GL006
//
// Threads spawned outside the pool, and a detached one.

#include <thread>

namespace fixture {

void Launch() {
  std::thread worker([] {});
  worker.join();
}

void FireAndForget(std::thread& t) {
  t.detach();
}

}  // namespace fixture
