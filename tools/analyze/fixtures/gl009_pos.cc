// gl-analyze-expect: GL009
//
// Clock reads outside obs/clock.h: time() as a seed, a raw steady_clock
// reading, and a high_resolution_clock alias.

#include <chrono>
#include <ctime>

namespace fixture {

unsigned long Seed() {
  return static_cast<unsigned long>(time(nullptr));
}

long Now() {
  const auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count();
}

using Clock = std::chrono::high_resolution_clock;
Clock::duration Zero() { return {}; }

}  // namespace fixture
