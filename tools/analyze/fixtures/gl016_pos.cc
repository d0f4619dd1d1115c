// gl-analyze-expect: GL016
//
// A clock reading laundered through a helper still reaches the epoch state
// hash: taint survives the call-return edge of the call graph, so hashing
// the "stamp" makes EpochStateHash differ between identical runs. The
// clock is the sanctioned obs one, so GL009 stays quiet: only the flow
// into the hash is wrong.

namespace fixture {

unsigned long long MonotonicMicros();

class StateHash {
 public:
  void MixU64(unsigned long long v);
};

unsigned long long TickStamp() {
  const unsigned long long t = MonotonicMicros();  // nondeterminism source
  return t;
}

void Snapshot(StateHash& h) {
  const unsigned long long stamp = TickStamp();
  h.MixU64(stamp);  // <-- GL016: wall-clock data in the state hash
}

}  // namespace fixture
