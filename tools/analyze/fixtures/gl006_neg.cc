// gl-analyze-expect: clean
//
// Fan-out through the pool.

#include "common/thread_pool.h"

namespace fixture {

void Fan(gl::ThreadPool& pool) {
  pool.ParallelFor(8, [](std::size_t) {});
}

}  // namespace fixture
