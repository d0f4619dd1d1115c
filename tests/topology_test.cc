#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "netsim/traffic.h"
#include "sim/latency.h"
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

// --- checked uplinks & failures -------------------------------------------------------

TEST(TopologyBandwidth, CheckedUplinksFollowTheNicsBelow) {
  // Full-bisection factories check nothing.
  EXPECT_FALSE(Topology::FatTree(4, kCap, 1000.0).has_checked_uplinks());
  EXPECT_FALSE(Topology::Testbed16().has_checked_uplinks());
  EXPECT_FALSE(
      Topology::LeafSpine(4, 2, 2, kCap, 1000.0).has_checked_uplinks());
  // Four 1G servers under two 1G spines: every leaf uplink is 2:1.
  const Topology oversubscribed = Topology::LeafSpine(2, 4, 2, kCap, 1000.0);
  for (const auto leaf : oversubscribed.NodesAtLevel(1)) {
    EXPECT_TRUE(oversubscribed.uplink_checked(leaf));
  }
  EXPECT_FALSE(oversubscribed.uplink_checked(oversubscribed.root()));

  Topology t = Topology::FatTree(4, kCap, 1000.0);
  const NodeId pod = t.NodesAtLevel(2)[1];
  const NodeId rack = t.AncestorAt(t.server_node(ServerId{0}), 1);
  EXPECT_DOUBLE_EQ(t.node(pod).nic_below_mbps, 4000.0);
  t.DegradeUplink(pod, 0.5);
  EXPECT_TRUE(t.uplink_checked(pod));
  EXPECT_TRUE(t.has_checked_uplinks());
  // Smaller NICs beneath can bring an uplink back within its capacity.
  for (const auto s : t.ServersUnder(pod)) t.set_server_capacity(s, kCap * 0.5);
  EXPECT_DOUBLE_EQ(t.node(pod).nic_below_mbps, 2000.0);
  EXPECT_FALSE(t.uplink_checked(pod));
  EXPECT_FALSE(t.has_checked_uplinks());
  // A half-size server's own link is half-size too, and not checked.
  const NodeId half_leaf = t.server_node(t.ServersUnder(pod)[0]);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(half_leaf), 500.0);
  EXPECT_FALSE(t.uplink_checked(half_leaf));
  // Faster NICs can overrun a healthy rack uplink; the server's own link
  // follows its NIC, so the leaf itself is not checked.
  Resource fast = kCap;
  fast.net_mbps = 1500.0;
  t.set_server_capacity(ServerId{0}, fast);
  const NodeId fast_leaf = t.server_node(ServerId{0});
  EXPECT_DOUBLE_EQ(t.uplink_capacity(fast_leaf), 1500.0);
  EXPECT_FALSE(t.uplink_checked(fast_leaf));
  EXPECT_TRUE(t.uplink_checked(rack));
  EXPECT_TRUE(t.has_checked_uplinks());
  // A degraded server link keeps its ratio to the NIC: checked before and
  // after, and counted once.
  t.set_server_capacity(ServerId{0}, kCap);
  EXPECT_FALSE(t.has_checked_uplinks());
  t.DegradeUplink(fast_leaf, 0.5);
  EXPECT_TRUE(t.uplink_checked(fast_leaf));
  t.set_server_capacity(ServerId{0}, fast);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(fast_leaf), 750.0);
  EXPECT_TRUE(t.uplink_checked(fast_leaf));
  EXPECT_TRUE(t.uplink_checked(rack));
  t.set_server_capacity(ServerId{0}, kCap);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(fast_leaf), 500.0);
  EXPECT_TRUE(t.uplink_checked(fast_leaf));
  EXPECT_FALSE(t.uplink_checked(rack));
  EXPECT_TRUE(t.has_checked_uplinks());
}

TEST(TopologyFailure, DegradeUplink) {
  Topology t = Topology::FatTree(4, kCap, 1000.0);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  const double before = t.uplink_capacity(pod);
  t.DegradeUplink(pod, 0.5);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(pod), before * 0.5);
}

// --- tree-path walk ---------------------------------------------------------

// Reference walk over parent pointers, with depths found by climbing to the
// root, independent of the servers' uplink chains: the deeper side alone,
// then both sides, a's node first.
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
        t.ForEachUplinkBetween(ServerId{a}, ServerId{b},
                               [&visited](NodeId n, int side) {
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

// --- path sums against the node-walk reference ------------------------------

// EstimateTraffic as first written, over parent pointers: the same
// arithmetic, with each path walked by ReferencePath.
TrafficEstimate ReferenceTraffic(const Workload& workload,
                                 const Placement& placement,
                                 std::span<const Resource> demands,
                                 std::span<const std::uint8_t> active,
                                 const Topology& topo) {
  TrafficEstimate out;
  out.edge_mbps.assign(workload.edges.size(), 0.0);
  out.node_uplink_mbps.assign(static_cast<std::size_t>(topo.num_nodes()),
                              0.0);
  std::vector<double> total_flows(workload.containers.size(), 0.0);
  auto edge_live = [&](const CommunicationEdge& e) {
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    return active[ia] && active[ib] && placement.server_of[ia].valid() &&
           placement.server_of[ib].valid();
  };
  for (const auto& e : workload.edges) {
    if (!edge_live(e)) continue;
    total_flows[static_cast<std::size_t>(e.a.value())] += std::abs(e.flows);
    total_flows[static_cast<std::size_t>(e.b.value())] += std::abs(e.flows);
  }
  for (std::size_t ei = 0; ei < workload.edges.size(); ++ei) {
    const auto& e = workload.edges[ei];
    if (!edge_live(e) || e.flows <= 0.0) continue;
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    const double share_a =
        total_flows[ia] > 0.0
            ? demands[ia].net_mbps * (e.flows / total_flows[ia])
            : 0.0;
    const double share_b =
        total_flows[ib] > 0.0
            ? demands[ib].net_mbps * (e.flows / total_flows[ib])
            : 0.0;
    const double traffic = 0.5 * (share_a + share_b);
    out.edge_mbps[ei] = traffic;
    const ServerId sa = placement.server_of[ia];
    const ServerId sb = placement.server_of[ib];
    if (sa == sb) continue;
    for (const auto& [n, side] :
         ReferencePath(topo, topo.server_node(sa), topo.server_node(sb))) {
      out.node_uplink_mbps[static_cast<std::size_t>(n.value())] += traffic;
    }
  }
  return out;
}

// LatencyModel::ComputeTct as first written: per-edge profile lookup and
// queue factor, each path walked by ReferencePath.
TctResult ReferenceTct(const LatencyModel& model, const LatencyOptions& opts,
                       const Topology& topo, const Workload& workload,
                       const Placement& placement,
                       std::span<const Resource> demands,
                       std::span<const std::uint8_t> active,
                       const TrafficEstimate& traffic) {
  const int num_servers = topo.num_servers();
  std::vector<double> cpu_load(static_cast<std::size_t>(num_servers), 0.0);
  for (std::size_t i = 0; i < workload.containers.size(); ++i) {
    const ServerId s = placement.server_of[i];
    if (!s.valid() || !active[i]) continue;
    cpu_load[static_cast<std::size_t>(s.value())] += demands[i].cpu;
  }
  std::vector<double> server_utilization(static_cast<std::size_t>(num_servers),
                                         0.0);
  for (int i = 0; i < num_servers; ++i) {
    const ServerId s{i};
    const auto& cap = topo.server_capacity(s);
    const double cpu_u =
        cap.cpu > 0.0 ? cpu_load[static_cast<std::size_t>(i)] / cap.cpu : 0.0;
    const double nic_u = traffic.UplinkUtilization(topo, topo.server_node(s));
    server_utilization[static_cast<std::size_t>(i)] = std::max(cpu_u, nic_u);
  }
  std::vector<double> hop_ms(static_cast<std::size_t>(topo.num_nodes()), 0.0);
  for (int i = 0; i < topo.num_nodes(); ++i) {
    hop_ms[static_cast<std::size_t>(i)] =
        opts.per_hop_ms *
        model.CongestionFactor(traffic.UplinkUtilization(topo, NodeId{i}));
  }
  TctResult result;
  std::vector<double> samples;
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  int violations = 0;
  for (const auto& e : workload.edges) {
    if (!e.is_query || e.flows <= 0.0) continue;
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    if (!active[ia] || !active[ib]) continue;
    const ServerId sa = placement.server_of[ia];
    const ServerId sb = placement.server_of[ib];
    if (!sa.valid() || !sb.valid()) continue;
    const AppProfile& responder = GetAppProfile(workload.containers[ib].app);
    const double u =
        std::max(server_utilization[static_cast<std::size_t>(sa.value())],
                 server_utilization[static_cast<std::size_t>(sb.value())]);
    double tct = responder.base_service_ms * model.QueueFactor(u);
    if (sa != sb) {
      double one_way = 0.0;
      for (const auto& [n, side] :
           ReferencePath(topo, topo.server_node(sa), topo.server_node(sb))) {
        one_way += hop_ms[static_cast<std::size_t>(n.value())];
      }
      tct += 2.0 * one_way;
    }
    samples.push_back(tct);
    weighted_sum += tct * e.flows;
    weight_total += e.flows;
    if (tct > opts.sla_ms) ++violations;
  }
  result.query_edges = static_cast<int>(samples.size());
  if (!samples.empty()) {
    result.mean_ms = weighted_sum / weight_total;
    result.p99_ms = Percentile(samples, 99.0);
    result.sla_violation_rate =
        static_cast<double>(violations) / static_cast<double>(samples.size());
  }
  return result;
}

struct PathWorld {
  Workload workload;
  Placement placement;
  std::vector<Resource> demands;
  std::vector<std::uint8_t> active;
};

// Three containers per server on average, most placed in runs of three so
// that neighbours share a server, loaded so that some servers and links run
// past saturation. Some containers are inactive or unplaced, and some edges
// carry zero or negative flow counts.
PathWorld RandomPathWorld(const Topology& topo, std::uint64_t seed) {
  Rng rng(seed);
  PathWorld w;
  const int servers = topo.num_servers();
  const int n = 3 * servers + 4;
  const Resource avg = topo.average_server_capacity();
  const auto& apps = AllAppProfiles();
  w.placement.server_of.assign(static_cast<std::size_t>(n),
                               ServerId::invalid());
  for (int i = 0; i < n; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.app = apps[rng.NextBelow(apps.size())].type;
    w.workload.containers.push_back(c);
    w.demands.push_back({.cpu = rng.Uniform(0.0, 0.6 * avg.cpu),
                         .mem_gb = 1.0,
                         .net_mbps = rng.Uniform(0.0, 0.8 * avg.net_mbps)});
    w.active.push_back(rng.NextDouble() < 0.85 ? 1 : 0);
    const double where = rng.NextDouble();
    if (where < 0.7) {
      w.placement.server_of[static_cast<std::size_t>(i)] =
          ServerId{(i / 3) % servers};
    } else if (where < 0.9) {
      w.placement.server_of[static_cast<std::size_t>(i)] = ServerId{
          static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(servers)))};
    }
  }
  // One of each case for sure: an unplaced and an inactive container, a
  // live same-server query edge and a zero-flow edge.
  w.placement.server_of[static_cast<std::size_t>(n - 1)] = ServerId::invalid();
  w.active[static_cast<std::size_t>(n - 2)] = 0;
  w.active[0] = w.active[1] = 1;
  w.placement.server_of[0] = w.placement.server_of[1] = ServerId{0};
  w.workload.edges.push_back({ContainerId{0}, ContainerId{1}, 5.0, true});
  w.workload.edges.push_back({ContainerId{0}, ContainerId{2}, 0.0, true});
  for (int k = 0; k < 6 * servers + 8; ++k) {
    const auto a = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    int b = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    if (rng.NextDouble() < 0.3) b = (a + 1) % n;
    if (b == a) b = (a + 1) % n;
    const double kind = rng.NextDouble();
    const double flows = kind < 0.1    ? 0.0
                         : kind < 0.15 ? -rng.Uniform(1.0, 10.0)
                                       : rng.Uniform(0.5, 20.0);
    w.workload.edges.push_back(
        {ContainerId{a}, ContainerId{b}, flows, rng.NextDouble() < 0.5});
  }
  return w;
}

TEST(PathSums, TrafficAndTctMatchNodeWalkReferenceBitForBit) {
  const std::vector<Topology> topologies = {
      Topology::FatTree(4, kCap, 1000.0),
      Topology::LeafSpine(4, 3, 2, kCap, 1000.0),
      Topology::Testbed16(),
      Topology::Vl2(16, kCap),
      Topology::ThreeTier({}),
      UnevenTree(),
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
    const Topology& t = topologies[ti];
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "topology " << ti << " seed " << seed);
      const PathWorld w = RandomPathWorld(t, seed);

      // The world reaches every case the tables short-cut.
      int inactive = 0, unplaced = 0, same_server = 0, zero_flow = 0;
      for (std::size_t i = 0; i < w.active.size(); ++i) {
        inactive += w.active[i] == 0;
        unplaced += !w.placement.server_of[i].valid();
      }
      for (const auto& e : w.workload.edges) {
        const auto ia = static_cast<std::size_t>(e.a.value());
        const auto ib = static_cast<std::size_t>(e.b.value());
        zero_flow += e.flows == 0.0;
        same_server += w.active[ia] && w.active[ib] &&
                       w.placement.server_of[ia].valid() &&
                       w.placement.server_of[ia] == w.placement.server_of[ib];
      }
      EXPECT_GT(inactive, 0);
      EXPECT_GT(unplaced, 0);
      EXPECT_GT(same_server, 0);
      EXPECT_GT(zero_flow, 0);

      const TrafficEstimate got =
          EstimateTraffic(w.workload, w.placement, w.demands, w.active, t);
      const TrafficEstimate want =
          ReferenceTraffic(w.workload, w.placement, w.demands, w.active, t);
      ASSERT_EQ(got.edge_mbps.size(), want.edge_mbps.size());
      for (std::size_t i = 0; i < got.edge_mbps.size(); ++i) {
        ASSERT_EQ(bits(got.edge_mbps[i]), bits(want.edge_mbps[i])) << "edge " << i;
      }
      ASSERT_EQ(got.node_uplink_mbps.size(), want.node_uplink_mbps.size());
      for (std::size_t i = 0; i < got.node_uplink_mbps.size(); ++i) {
        ASSERT_EQ(bits(got.node_uplink_mbps[i]), bits(want.node_uplink_mbps[i]))
            << "node " << i;
      }

      const LatencyOptions opts;
      const LatencyModel model(t, opts);
      const TctResult tct =
          model.ComputeTct(w.workload, w.placement, w.demands, w.active, got);
      const TctResult ref = ReferenceTct(model, opts, t, w.workload,
                                         w.placement, w.demands, w.active, got);
      EXPECT_GT(tct.query_edges, 0);
      EXPECT_EQ(tct.query_edges, ref.query_edges);
      EXPECT_EQ(bits(tct.mean_ms), bits(ref.mean_ms));
      EXPECT_EQ(bits(tct.p99_ms), bits(ref.p99_ms));
      EXPECT_EQ(bits(tct.sla_violation_rate), bits(ref.sla_violation_rate));
      // The split adds back up to the mean.
      EXPECT_NEAR(tct.queue_ms + tct.network_ms, tct.mean_ms,
                  1e-12 * tct.mean_ms);
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
