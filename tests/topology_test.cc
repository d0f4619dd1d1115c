#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "topology/datacenters.h"
#include "topology/topology.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 1600, .mem_gb = 64, .net_mbps = 1000};

// --- fat-tree ------------------------------------------------------------------

TEST(FatTree, PaperScaleCounts) {
  // The Fig. 13 topology: 28-ary fat tree → 5488 servers, 980 switches.
  const Topology t = Topology::FatTree(28, kCap, 10000.0);
  EXPECT_EQ(t.num_servers(), 5488);
  EXPECT_EQ(t.num_switches(), 980);
}

TEST(FatTree, SmallCounts) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  EXPECT_EQ(t.num_servers(), 16);     // k^3/4
  EXPECT_EQ(t.num_switches(), 20);    // 5k^2/4
  EXPECT_EQ(t.num_levels(), 4);
}

TEST(FatTree, HopDistances) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  // Servers 0,1 share a rack; 0,2 share a pod; 0,8 are cross-pod.
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{0}), 0);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{1}), 2);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{2}), 4);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{8}), 6);
  // Symmetry.
  EXPECT_EQ(t.HopDistance(ServerId{8}, ServerId{0}), 6);
}

TEST(FatTree, UplinkCapacities) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  // Rack uplink: k/2 × link = 2000; pod uplink: (k/2)^2 × link = 4000.
  const NodeId rack = t.AncestorAt(t.server_node(ServerId{0}), 1);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(rack), 2000.0);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(pod), 4000.0);
  // Server NIC equals the link rate.
  EXPECT_DOUBLE_EQ(t.server_capacity(ServerId{0}).net_mbps, 1000.0);
}

TEST(FatTree, ServersUnderSubtrees) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  EXPECT_EQ(t.ServersUnder(t.root()).size(), 16u);
  const NodeId rack = t.AncestorAt(t.server_node(ServerId{0}), 1);
  const auto rack_servers = t.ServersUnder(rack);
  EXPECT_EQ(rack_servers.size(), 2u);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  EXPECT_EQ(t.ServersUnder(pod).size(), 4u);
}

TEST(FatTree, ServersInOrderAreContiguous) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  const auto servers = t.ServersUnder(t.root());
  std::set<int> seen;
  for (const auto s : servers) seen.insert(s.value());
  EXPECT_EQ(seen.size(), 16u);
  // Left-most ordering: adjacent entries share racks pairwise.
  EXPECT_EQ(t.HopDistance(servers[0], servers[1]), 2);
}

TEST(FatTree, NodesAtLevel) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  EXPECT_EQ(t.NodesAtLevel(1).size(), 8u);  // k^2/2 racks
  EXPECT_EQ(t.NodesAtLevel(2).size(), 4u);  // pods
  EXPECT_EQ(t.NodesAtLevel(3).size(), 1u);  // core root
  EXPECT_EQ(t.NodesAtLevel(0).size(), 16u);
}

// --- leaf-spine -----------------------------------------------------------------

TEST(LeafSpine, Counts) {
  const Topology t = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  EXPECT_EQ(t.num_servers(), 16);
  EXPECT_EQ(t.num_switches(), 10);  // 8 leaves + 2 spines
  EXPECT_EQ(t.num_levels(), 3);
}

TEST(LeafSpine, HopDistances) {
  const Topology t = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{1}), 2);  // same leaf
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{2}), 4);  // cross leaf
}

TEST(LeafSpine, UplinkIsSpineMesh) {
  const Topology t = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  const NodeId leaf = t.AncestorAt(t.server_node(ServerId{0}), 1);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(leaf), 2000.0);  // 2 spines × 1G
}

TEST(Testbed16, MatchesPaperSpec) {
  const Topology t = Topology::Testbed16();
  EXPECT_EQ(t.num_servers(), 16);
  const auto& cap = t.server_capacity(ServerId{0});
  EXPECT_DOUBLE_EQ(cap.cpu, 3200.0);   // 32 cores
  EXPECT_DOUBLE_EQ(cap.mem_gb, 64.0);
  EXPECT_DOUBLE_EQ(cap.net_mbps, 1000.0);
}

// --- capacity bookkeeping ---------------------------------------------------------

TEST(TopologyCapacity, TotalsAndAverages) {
  const Topology t = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Resource expect_cap = kCap;
  expect_cap.net_mbps = 1000.0;
  EXPECT_DOUBLE_EQ(t.total_server_capacity().cpu, 4 * expect_cap.cpu);
  EXPECT_DOUBLE_EQ(t.average_server_capacity().cpu, expect_cap.cpu);
}

TEST(TopologyCapacity, Heterogeneity) {
  Topology t = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Resource small = kCap * 0.5;
  t.set_server_capacity(ServerId{0}, small);
  EXPECT_DOUBLE_EQ(t.server_capacity(ServerId{0}).cpu, kCap.cpu * 0.5);
  EXPECT_DOUBLE_EQ(t.average_server_capacity().cpu, kCap.cpu * 0.875);
}

// --- reservations & failures -------------------------------------------------------

TEST(TopologyBandwidth, ReserveRelease) {
  Topology t = Topology::LeafSpine(2, 2, 2, kCap, 1000.0);
  const NodeId leaf = t.AncestorAt(t.server_node(ServerId{0}), 1);
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 2000.0);
  t.Reserve(leaf, 500.0);
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 1500.0);
  t.Release(leaf, 200.0);
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 1700.0);
  t.ClearReservations();
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 2000.0);
}

TEST(TopologyBandwidth, ReleaseClampsAtZero) {
  Topology t = Topology::LeafSpine(2, 2, 2, kCap, 1000.0);
  const NodeId leaf = t.AncestorAt(t.server_node(ServerId{0}), 1);
  t.Reserve(leaf, 100.0);
  t.Release(leaf, 500.0);
  EXPECT_DOUBLE_EQ(t.uplink_reserved(leaf), 0.0);
}

TEST(TopologyFailure, DegradeUplink) {
  Topology t = Topology::FatTree(4, kCap, 1000.0);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  const double before = t.uplink_capacity(pod);
  t.DegradeUplink(pod, 0.5);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(pod), before * 0.5);
}

// --- tree-path walk ---------------------------------------------------------

// Reference walk with depths found by climbing to the root, independent of
// Node::depth: the deeper side alone, then both sides, a's node first.
std::vector<std::pair<NodeId, int>> ReferencePath(const Topology& t, NodeId a,
                                                  NodeId b) {
  const auto depth = [&t](NodeId id) {
    int d = 0;
    for (NodeId cur = id; t.node(cur).parent.valid();
         cur = t.node(cur).parent) {
      ++d;
    }
    return d;
  };
  std::vector<std::pair<NodeId, int>> path;
  int da = depth(a);
  int db = depth(b);
  while (da > db) {
    path.emplace_back(a, 0);
    a = t.node(a).parent;
    --da;
  }
  while (db > da) {
    path.emplace_back(b, 1);
    b = t.node(b).parent;
    --db;
  }
  while (a != b) {
    path.emplace_back(a, 0);
    path.emplace_back(b, 1);
    a = t.node(a).parent;
    b = t.node(b).parent;
  }
  return path;
}

// Servers at uneven depths: two under a rack, one straight under the root,
// so the deeper-side-first loops run too.
Topology UnevenTree() {
  Topology t;
  const NodeId root = t.AddSwitchNode(NodeId::invalid(), 2, 0.0, 1, 0);
  const NodeId rack = t.AddSwitchNode(root, 1, 2000.0, 1, 2);
  t.AddServer(rack, kCap);
  t.AddServer(rack, kCap);
  t.AddServer(root, kCap);
  return t;
}

TEST(Topology, PathVisitorMatchesReferenceWalk) {
  const std::vector<Topology> topologies = {
      Topology::FatTree(4, kCap, 1000.0),
      Topology::LeafSpine(4, 3, 2, kCap, 1000.0),
      Topology::Testbed16(),
      Topology::Vl2(16, kCap),
      Topology::ThreeTier({}),
      UnevenTree(),
  };
  for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
    const Topology& t = topologies[ti];
    for (int a = 0; a < t.num_servers(); ++a) {
      for (int b = 0; b < t.num_servers(); ++b) {
        const NodeId na = t.server_node(ServerId{a});
        const NodeId nb = t.server_node(ServerId{b});
        std::vector<std::pair<NodeId, int>> visited;
        t.ForEachUplinkOnPath(na, nb, [&visited](NodeId n, int side) {
          visited.emplace_back(n, side);
        });
        ASSERT_EQ(visited, ReferencePath(t, na, nb))
            << "topology " << ti << " servers " << a << "," << b;
        ASSERT_EQ(static_cast<int>(visited.size()),
                  t.HopDistance(ServerId{a}, ServerId{b}));
      }
    }
  }
}

// --- Table I data -----------------------------------------------------------------

TEST(TableOne, FiveDataCenters) {
  const auto& dcs = TableOneDataCenters();
  ASSERT_EQ(dcs.size(), 5u);
  EXPECT_EQ(dcs[0].servers, 98304);   // Google
  EXPECT_EQ(dcs[1].servers, 184320);  // Facebook
  EXPECT_EQ(dcs[2].servers, 46080);   // VL2
  EXPECT_EQ(dcs[3].servers, 32768);   // Fat-tree(32)
  EXPECT_EQ(dcs[4].servers, 93312);   // Fat-tree(72)
  for (const auto& dc : dcs) {
    EXPECT_GT(dc.tor_switches, 0);
    EXPECT_GT(dc.server_max_watts, 0.0);
    EXPECT_GT(dc.tor_switch_watts, 0.0);
  }
}

}  // namespace
}  // namespace gl
