// gl-analyze-expect: GL007
//
// Mutable namespace-scope state, initialized and not.

namespace fixture {

int g_epoch_counter = 0;

namespace {
double last_cut_weight;
}

}  // namespace fixture
