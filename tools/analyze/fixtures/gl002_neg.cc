// gl-analyze-expect: clean
//
// A comment that merely mentions rand() and mt19937 and for (x : m), and a
// string literal that does too: only code tokens count.

namespace fixture {

const char* Doc() { return "seeded by rand() or std::mt19937"; }

}  // namespace fixture
