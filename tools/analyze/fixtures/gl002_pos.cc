// gl-analyze-expect: GL002
//
// Randomness from outside gl::Rng: rand(), and a std engine feeding a std
// distribution. Both bit-streams differ across standard libraries.

#include <random>

namespace fixture {

int Roll() {
  return rand() % 6;  // deliberately nondeterministic
}

double Draw() {
  std::mt19937 gen(42);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(gen);
}

}  // namespace fixture
