// gl-analyze-expect: clean
//
// Namespace-scope declarations that are not mutable variables: constants,
// an alias, declarations, definitions, and a brace default argument.

namespace fixture {

struct Options;

constexpr double kEps = 1e-9;
const int kMaxRetries = 4;
inline constexpr int kWidth = 80;

using Id = int;
int CountThings(const Options& opts);
double Weigh(double x) { return x * 2.0; }

inline int RunAll(const Options& opts = {}, int repartition_interval = 1) {
  return repartition_interval;
}

}  // namespace fixture
