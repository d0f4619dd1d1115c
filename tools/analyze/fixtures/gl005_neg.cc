// gl-analyze-expect: clean
//
// The same comparison through an epsilon helper.

namespace fixture {

struct Resource {
  double cpu, mem_gb, net_mbps;
};

bool Within(double v, double cap);

bool Fits(const Resource& a, const Resource& cap) {
  return Within(a.cpu, cap.cpu) && Within(a.mem_gb, cap.mem_gb);
}

}  // namespace fixture
