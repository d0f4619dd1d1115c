// gl-analyze-expect: clean
//
// Timing through the obs wrappers, which keep the raw clock in obs/clock.h.

#include "obs/clock.h"

namespace fixture {

double ElapsedPhaseMs(const gl::obs::WallTimer& t) {
  return t.ElapsedMs();
}

}  // namespace fixture
