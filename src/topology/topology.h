// Hierarchical data-center network model.
//
// Goldilocks places container groups on *substructures* — a machine, a rack,
// a pod, a subtree (Sec. III-B) — so the topology is modelled as a rooted
// hierarchy whose leaves are servers. Multi-rooted Clos fabrics (fat-tree,
// leaf-spine, VL2) map onto this by aggregating the ECMP uplinks of a
// substructure into one logical uplink whose capacity equals the
// substructure's outbound bisection bandwidth — the same abstraction Oktopus
// [46] uses, and exactly the quantity equations (4)/(5) reserve against.
//
// Physical switch counts per hierarchy node are retained so the power module
// can account for and gate real switches, not logical ones.
//
// Asymmetry (Sec. IV) enters in two ways:
//   * heterogeneous servers — per-server capacity vectors are mutable;
//   * link/switch failures — uplink capacities can be degraded per node.
// Either can leave an uplink below the NICs beneath it; such an uplink is
// *checked* (uplink_checked), the only kind on which Eq. (4)/(5) can bind.
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/resource.h"

namespace gl {

class Topology {
 public:
  struct Node {
    NodeId id;
    NodeId parent = NodeId::invalid();
    std::vector<NodeId> children;
    int level = 0;  // 0 = server; increases toward the root
    // Aggregate capacity of all physical uplinks toward the parent (Mbps).
    double uplink_capacity_mbps GL_UNITS(bits_per_sec) = 0.0;
    // Summed NIC capacity of the servers beneath (a leaf: its own NIC).
    double nic_below_mbps GL_UNITS(bits_per_sec) = 0.0;
    // Physical switches this hierarchy node stands for (0 for servers).
    int physical_switches = 0;
    // Physical links the uplink bundle stands for.
    int physical_uplinks = 0;
    ServerId server = ServerId::invalid();  // valid iff level == 0
  };

  // --- construction -------------------------------------------------------

  // Adds an internal (switch) node. Parent must exist or be invalid() for
  // the root (only one root allowed).
  NodeId AddSwitchNode(NodeId parent, int level, double uplink_mbps,
                       int physical_switches, int physical_uplinks);

  // Adds a server leaf under `rack`. NIC bandwidth doubles as the uplink
  // capacity of the leaf node.
  ServerId AddServer(NodeId rack, const Resource& capacity);

  // Named factories.
  //
  // k-ary fat-tree [35]: k pods, k/2 edge + k/2 aggregation switches per
  // pod, (k/2)^2 core switches, k^3/4 servers. k must be even and >= 2.
  static Topology FatTree(int k, const Resource& server_capacity,
                          double link_mbps);

  // Leaf-spine: `leaves` ToR switches with `servers_per_leaf` servers each,
  // fully meshed to `spines` spine switches.
  static Topology LeafSpine(int leaves, int servers_per_leaf, int spines,
                            const Resource& server_capacity, double link_mbps);

  // The paper's 16-node testbed (Sec. V): 8 virtual leaf switches with 2
  // servers each, 2 spine switches, 1G links; 32-core / 64 GB servers.
  static Topology Testbed16();

  // Generic three-tier Clos: `pods` pods of `racks_per_pod` racks with
  // `servers_per_rack` servers; each rack has `rack_uplinks` links of
  // `fabric_link_mbps`; each pod has `agg_per_pod` aggregation switches
  // with `pod_uplinks` links to `core_switches` cores. Expresses the
  // VL2 [34] and Facebook-fabric [32] rows of Table I at any scale.
  struct ThreeTierSpec {
    int pods = 4;
    int racks_per_pod = 4;
    int servers_per_rack = 20;
    int rack_uplinks = 2;
    int agg_per_pod = 2;
    int pod_uplinks = 4;
    int core_switches = 4;
    double server_link_mbps GL_UNITS(bits_per_sec) = 10000.0;
    double fabric_link_mbps GL_UNITS(bits_per_sec) = 40000.0;
    Resource server_capacity{.cpu = 3200, .mem_gb = 64, .net_mbps = 10000};
  };
  static Topology ThreeTier(const ThreeTierSpec& spec);

  // VL2(d)-shaped instance [34]: 20 servers per ToR, ToRs dual-homed into
  // an aggregation mesh. `scale` divides the Table I row for laptop-sized
  // experiments while preserving the shape.
  static Topology Vl2(int num_tors, const Resource& server_capacity,
                      double server_link_mbps = 10000.0);

  // --- structural queries --------------------------------------------------

  [[nodiscard]] const Node& node(NodeId id) const {
    return nodes_[CheckedNode(id)];
  }
  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int num_servers() const {
    return static_cast<int>(server_nodes_.size());
  }
  [[nodiscard]] int num_switches() const;  // physical switch count
  [[nodiscard]] int num_links() const;     // physical link count
  [[nodiscard]] int num_levels() const { return num_levels_; }

  [[nodiscard]] NodeId server_node(ServerId s) const {
    return server_nodes_[CheckedServer(s)];
  }
  [[nodiscard]] const Resource& server_capacity(ServerId s) const {
    return server_capacity_[CheckedServer(s)];
  }
  // Heterogeneity hook: replace one server's capacity (Sec. IV). The
  // server's own link follows the new NIC, keeping its ratio to the old one.
  void set_server_capacity(ServerId s, const Resource& c);
  [[nodiscard]] Resource total_server_capacity() const;
  [[nodiscard]] Resource average_server_capacity() const;

  // Number of links on the shortest path between two servers (0 if equal).
  [[nodiscard]] int HopDistance(ServerId a, ServerId b) const;

  // Calls fn(node, side) once per uplink on the tree path between servers
  // `a` and `b`: side 0 for the nodes on a's way up to the lowest common
  // ancestor, 1 for b's. The deeper side climbs alone until both stand at
  // one depth; then both climb level by level, a's node before b's. Every
  // caller that sums per-hop values relies on this order for bit-identical
  // results. Reads the servers' flat uplink chains, not parent pointers.
  template <typename Fn>
  void ForEachUplinkBetween(ServerId a, ServerId b, Fn&& fn) const {
    const std::size_t ia = CheckedServer(a);
    const std::size_t ib = CheckedServer(b);
    const NodeId* ca = chain_nodes_.data() + chain_offsets_[ia];
    const NodeId* cb = chain_nodes_.data() + chain_offsets_[ib];
    const NodeId* const ea = chain_nodes_.data() + chain_offsets_[ia + 1];
    const NodeId* const eb = chain_nodes_.data() + chain_offsets_[ib + 1];
    while (ea - ca > eb - cb) fn(*ca++, 0);
    while (eb - cb > ea - ca) fn(*cb++, 1);
    // Equal lengths left, so both chains end together at the root's child.
    while (ca != ea && *ca != *cb) {
      fn(*ca++, 0);
      fn(*cb++, 1);
    }
  }

  // Servers under a subtree in left-to-right (locality) order.
  [[nodiscard]] std::vector<ServerId> ServersUnder(NodeId subtree) const;

  // All nodes at a given level, left-to-right.
  [[nodiscard]] std::vector<NodeId> NodesAtLevel(int level) const;

  // Walks up from `id`; returns the ancestor at `level` (or invalid()).
  [[nodiscard]] NodeId AncestorAt(NodeId id, int level) const;

  // --- bandwidth accounting (asymmetric placement) -------------------------

  [[nodiscard]] double uplink_capacity(NodeId id) const
      GL_UNITS(bits_per_sec) {
    return nodes_[CheckedNode(id)].uplink_capacity_mbps;
  }
  // True when the uplink of `id` carries less than the summed NICs of the
  // servers beneath it, so Eq. (4)/(5) reservations can bind on it. A
  // full-bisection uplink cannot bind before those NICs do, and packing
  // already checks them. The root has no uplink and is never checked.
  [[nodiscard]] bool uplink_checked(NodeId id) const {
    const auto& n = nodes_[CheckedNode(id)];
    return n.parent.valid() &&
           !WithinCap(n.nic_below_mbps, n.uplink_capacity_mbps);
  }
  // Kept up to date by AddServer, set_server_capacity and DegradeUplink, so
  // asking costs nothing on a topology without a checked uplink.
  [[nodiscard]] bool has_checked_uplinks() const {
    return num_checked_uplinks_ > 0;
  }

  // Failure injection: scales the uplink capacity of `id` by `factor`
  // (e.g. 0.5 = half the uplinks of this substructure failed).
  void DegradeUplink(NodeId id, double factor GL_UNITS(dimensionless));

 private:
  [[nodiscard]] std::size_t CheckedNode(NodeId id) const {
    GOLDILOCKS_CHECK(id.valid() && id.value() < num_nodes());
    return static_cast<std::size_t>(id.value());
  }
  [[nodiscard]] std::size_t CheckedServer(ServerId s) const {
    GOLDILOCKS_CHECK(s.valid() && s.value() < num_servers());
    return static_cast<std::size_t>(s.value());
  }

  // Adds `delta_mbps` of NIC capacity beneath every uplink of server s.
  void AddNicBelow(std::size_t s, double delta_mbps GL_UNITS(bits_per_sec));

  std::vector<Node> nodes_;
  std::vector<NodeId> server_nodes_;    // ServerId → leaf node
  // Uplink chain of each server, flat: server s owns
  // chain_nodes_[chain_offsets_[s] .. chain_offsets_[s + 1]), its leaf
  // first and the root's child last (the root has no uplink).
  std::vector<std::size_t> chain_offsets_{0};
  std::vector<NodeId> chain_nodes_;
  std::vector<Resource> server_capacity_;
  NodeId root_ = NodeId::invalid();
  int num_levels_ = 0;
  int num_checked_uplinks_ = 0;
};

}  // namespace gl
