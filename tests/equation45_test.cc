// Hand-computed checks of the paper's equations (4) and (5): the bandwidth
// reserved on a subtree's outbound uplink for a container group must equal
//
//   R_Gk(T) = min( Σ_{q∈Gka} B_q,                      [inside component]
//                  Σ_{r∈Gkb} B_r                        [own outside]
//                + Σ_{y≠k placed} Σ_{r∈Gyb} B_r         [others' outside]
//                + Σ_{z pending} Σ_{s∈Gz} B_s )         [pending, all out]
//
// These scenarios are small enough to evaluate the formula by hand and
// compare against UplinkReservations::ReservedOn. Reservations are tracked on
// checked uplinks only, so every rack here is oversubscribed; its capacity
// binds only where a test says so.
#include <gtest/gtest.h>

#include "core/uplink_reservations.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 3200, .mem_gb = 64, .net_mbps = 10000};

std::vector<Resource> Demands(std::initializer_list<double> net) {
  std::vector<Resource> out;
  for (const double n : net) {
    out.push_back(Resource{.cpu = 100, .mem_gb = 1, .net_mbps = n});
  }
  return out;
}

NodeId RackOf(const Topology& topo, int server) {
  return topo.AncestorAt(topo.server_node(ServerId{server}), 1);
}

// One server per rack under two 10 Gbps spines: keeping a quarter of each
// rack's uplinks leaves 5 Gbps against a 10 Gbps NIC.
Topology OneServerRacks(int racks) {
  Topology topo = Topology::LeafSpine(racks, 1, 2, kCap, 10000.0);
  for (const auto rack : topo.NodesAtLevel(1)) topo.DegradeUplink(rack, 0.25);
  return topo;
}

TEST(Equation45, WholeGroupInOneRackReservesItsBandwidthBound) {
  // One group of two containers (B = 100 each) lands wholly in rack 0; no
  // other groups exist. Component b is empty and there is no inter-group
  // traffic, so Eq. (4) gives R = min(ΣB_a, 0) = 0 on the rack uplink.
  Topology topo = Topology::LeafSpine(4, 4, 2, kCap, 10000.0);  // 2:1
  const std::vector<std::vector<ContainerId>> groups{
      {ContainerId{0}, ContainerId{1}}};
  UplinkReservations res(topo, groups, Demands({100, 100}));
  const NodeId rack = RackOf(topo, 0);
  ASSERT_TRUE(topo.uplink_checked(rack));
  EXPECT_DOUBLE_EQ(res.group_bandwidth(0), 200.0);
  ASSERT_TRUE(res.Admits(0, ServerId{0}, res.group_bandwidth(0)));
  res.Commit(0, ServerId{0}, res.group_bandwidth(0));
  EXPECT_NEAR(res.ReservedOn(rack), 0.0, 1e-9);
}

TEST(Equation45, PendingGroupsCountAsFullyOutside) {
  // Group 0 (B = 100) is placed in rack 0 while group 1 (B = 40) is still
  // pending, all of it outside. Eq. (5) for group 0 on rack 0's uplink:
  //   min(ΣB_in = 100, own outside 0 + pending 40) = 40.
  Topology topo = OneServerRacks(4);
  const std::vector<std::vector<ContainerId>> groups{{ContainerId{0}},
                                                     {ContainerId{1}}};
  UplinkReservations res(topo, groups, Demands({100, 40}));
  const NodeId rack0 = RackOf(topo, 0);
  const NodeId rack1 = RackOf(topo, 1);
  res.Commit(0, ServerId{0}, 100.0);
  EXPECT_NEAR(res.ReservedOn(rack0), 40.0, 1e-9);
  EXPECT_NEAR(res.ReservedOn(rack1), 0.0, 1e-9);
  // Group 1 lands in rack 1; group 0 now sees it as placed outside:
  // rack 0: R_g0 = min(100, 0 + others' outside 40) = 40;
  // rack 1: R_g1 = min(40, 0 + others' outside 100) = 40.
  res.Commit(1, ServerId{1}, 40.0);
  EXPECT_NEAR(res.ReservedOn(rack0), 40.0, 1e-9);
  EXPECT_NEAR(res.ReservedOn(rack1), 40.0, 1e-9);
}

TEST(Equation45, SplitGroupReservesMinOfInsideAndOutside) {
  // A 3-container group (B = 100 each) split 2-in / 1-out of a rack. For
  // the rack holding the 2-component:
  //   R = min(ΣB_in = 200, own outside = 100) = 100;
  // for the other: min(100, 200) = 100.
  Topology topo = OneServerRacks(4);
  const std::vector<std::vector<ContainerId>> groups{
      {ContainerId{0}, ContainerId{1}, ContainerId{2}}};
  UplinkReservations res(topo, groups, Demands({100, 100, 100}));
  res.Commit(0, ServerId{0}, 100.0);
  res.Commit(0, ServerId{0}, 100.0);
  res.Commit(0, ServerId{1}, 100.0);
  EXPECT_NEAR(res.ReservedOn(RackOf(topo, 0)), 100.0, 1e-9);
  EXPECT_NEAR(res.ReservedOn(RackOf(topo, 1)), 100.0, 1e-9);
}

TEST(Equation45, ReservationNeverExceedsInsideBandwidth) {
  // Whatever the configuration, R_Gk ≤ Σ B over the inside component — the
  // "could never be larger than the total bandwidth of component a" bound.
  // Six 4-container groups are scattered over a fat tree whose racks keep
  // a quarter of their uplinks.
  Topology topo = Topology::FatTree(4, kCap, 10000.0);
  for (const auto rack : topo.NodesAtLevel(1)) topo.DegradeUplink(rack, 0.25);
  std::vector<std::vector<ContainerId>> groups;
  std::vector<Resource> demands;
  for (int g = 0; g < 6; ++g) {
    std::vector<ContainerId> members;
    for (int i = 0; i < 4; ++i) {
      members.push_back(ContainerId{static_cast<int>(demands.size())});
      demands.push_back(Resource{.cpu = 200, .mem_gb = 2,
                                 .net_mbps = 50.0 + 25.0 * g});
    }
    groups.push_back(std::move(members));
  }
  UplinkReservations res(topo, groups, demands);
  std::vector<ServerId> server_of(demands.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto c : groups[g]) {
      const auto ci = static_cast<std::size_t>(c.value());
      server_of[ci] = ServerId{static_cast<int>(ci * 5 % 16)};
      res.Commit(g, server_of[ci], demands[ci].net_mbps);
    }
  }
  for (const auto rack : topo.NodesAtLevel(1)) {
    ASSERT_TRUE(topo.uplink_checked(rack));
    double inside = 0.0;
    for (const auto s : topo.ServersUnder(rack)) {
      for (std::size_t c = 0; c < demands.size(); ++c) {
        if (server_of[c] == s) inside += demands[c].net_mbps;
      }
    }
    EXPECT_GT(inside, 0.0);
    EXPECT_LE(res.ReservedOn(rack), inside + 1e-9);
  }
}

TEST(Equation45, AdmitsNoReservationBeyondCapacity) {
  // Rack 0 keeps 1% of its uplinks: 200 Mbps. Group 0 has two containers
  // (B = 150 each); group 1 (B = 300) is pending. One member of group 0 in
  // rack 0 reserves min(150, own outside 150 + pending 300) = 150, which
  // fits; both reserve min(300, 0 + pending 300) = 300, which does not.
  Topology topo = Topology::LeafSpine(2, 1, 2, kCap, 10000.0);
  const NodeId rack0 = RackOf(topo, 0);
  topo.DegradeUplink(rack0, 0.01);
  const std::vector<std::vector<ContainerId>> groups{
      {ContainerId{0}, ContainerId{1}}, {ContainerId{2}}};
  UplinkReservations res(topo, groups, Demands({150, 150, 300}));
  EXPECT_FALSE(res.Admits(0, ServerId{0}, res.group_bandwidth(0)));
  ASSERT_TRUE(res.Admits(0, ServerId{0}, 150.0));
  res.Commit(0, ServerId{0}, 150.0);
  EXPECT_NEAR(res.ReservedOn(rack0), 150.0, 1e-9);
  EXPECT_FALSE(res.Admits(0, ServerId{0}, 150.0));
  // Rack 1 is not oversubscribed, so nothing is checked there.
  EXPECT_TRUE(res.Admits(0, ServerId{1}, 150.0));
}

}  // namespace
}  // namespace gl
