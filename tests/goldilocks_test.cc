#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "core/goldilocks.h"
#include "schedulers/borg.h"
#include "schedulers/e_pvm.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};

struct Fixture {
  explicit Fixture(int epoch = 30)
      : topo(Topology::LeafSpine(8, 2, 2, kCap, 1000.0)),
        scenario(MakeTwitterCachingScenario()) {
    demands = scenario->DemandsAt(epoch);
    active = scenario->ActiveAt(epoch);
    input.workload = &scenario->workload();
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
  }
  Topology topo;
  std::unique_ptr<Scenario> scenario;
  std::vector<Resource> demands;
  std::vector<std::uint8_t> active;
  SchedulerInput input;
};

// --- graph builder ------------------------------------------------------------------

TEST(GraphBuilder, OneVertexPerActiveContainer) {
  Fixture f;
  const auto cg = BuildContainerGraph(*f.input.workload, f.demands, f.active,
                                      kCap);
  EXPECT_EQ(cg.graph.num_vertices(), 176);
  EXPECT_EQ(cg.vertex_to_container.size(), 176u);
  for (int i = 0; i < 176; ++i) {
    const auto v = cg.container_to_vertex[static_cast<std::size_t>(i)];
    ASSERT_GE(v, 0);
    EXPECT_EQ(cg.vertex_to_container[static_cast<std::size_t>(v)].value(), i);
  }
}

TEST(GraphBuilder, InactiveContainersSkipped) {
  Fixture f;
  f.active[0] = 0;
  f.active[5] = 0;
  const auto cg = BuildContainerGraph(*f.input.workload, f.demands, f.active,
                                      kCap);
  EXPECT_EQ(cg.graph.num_vertices(), 174);
  EXPECT_EQ(cg.container_to_vertex[0], -1);
}

TEST(GraphBuilder, EdgeWeightsAreFlowCounts) {
  Fixture f;
  const auto cg = BuildContainerGraph(*f.input.workload, f.demands, f.active,
                                      kCap);
  double max_w = 0.0;
  for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
    for (const double w : cg.graph.arc_weights(v)) max_w = std::max(max_w, w);
  }
  EXPECT_DOUBLE_EQ(max_w, 4944.0);
}

TEST(GraphBuilder, ReplicaAntiAffinityEdges) {
  Workload w;
  for (int i = 0; i < 3; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 1};
    c.replica_set = GroupId{1};
    w.containers.push_back(c);
  }
  std::vector<Resource> demands(3, {.cpu = 10, .mem_gb = 1, .net_mbps = 1});
  std::vector<std::uint8_t> active(3, 1);
  const auto cg = BuildContainerGraph(w, demands, active, kCap);
  // A negative clique over the 3 replicas.
  EXPECT_EQ(cg.graph.num_edges(), 3u);
  for (const double w : cg.graph.arc_weights(0)) EXPECT_LT(w, 0.0);
}

TEST(GraphBuilder, RefreshEqualsABuildFromTheNewDemands) {
  // A kept graph given the next epoch's demands holds the weights and
  // totals a new build computes, bit for bit, and keeps its arcs and its
  // structure stamp.
  Fixture f(30);
  ContainerGraph kept =
      BuildContainerGraph(*f.input.workload, f.demands, f.active, kCap);
  const std::uint64_t stamp = kept.graph.structure_stamp();
  const auto next = f.scenario->DemandsAt(31);
  RefreshContainerGraph(kept, next, kCap);
  const ContainerGraph built =
      BuildContainerGraph(*f.input.workload, next, f.active, kCap);
  EXPECT_EQ(kept.graph.structure_stamp(), stamp);
  EXPECT_NE(built.graph.structure_stamp(), stamp);
  EXPECT_EQ(kept.anti_affinity_edges, built.anti_affinity_edges);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto same = [&](const Resource& a, const Resource& b) {
    return bits(a.cpu) == bits(b.cpu) && bits(a.mem_gb) == bits(b.mem_gb) &&
           bits(a.net_mbps) == bits(b.net_mbps);
  };
  ASSERT_EQ(kept.graph.num_vertices(), built.graph.num_vertices());
  for (VertexIndex v = 0; v < kept.graph.num_vertices(); ++v) {
    EXPECT_EQ(bits(kept.graph.balance_weight(v)),
              bits(built.graph.balance_weight(v)));
    EXPECT_TRUE(same(kept.graph.demand(v), built.graph.demand(v)));
    EXPECT_TRUE(std::ranges::equal(kept.graph.arcs(v), built.graph.arcs(v)));
    EXPECT_TRUE(std::ranges::equal(kept.graph.arc_weights(v),
                                   built.graph.arc_weights(v)));
  }
  EXPECT_EQ(bits(kept.graph.total_balance_weight()),
            bits(built.graph.total_balance_weight()));
  EXPECT_TRUE(same(kept.graph.total_demand(), built.graph.total_demand()));
}

// --- Goldilocks placement --------------------------------------------------------------

TEST(Goldilocks, PlacesAllActiveContainers) {
  Fixture f;
  GoldilocksScheduler sched;
  const auto p = sched.Place(f.input);
  for (std::size_t i = 0; i < p.server_of.size(); ++i) {
    EXPECT_EQ(p.server_of[i].valid(), f.active[i] != 0);
  }
}

TEST(Goldilocks, RespectsPeeCeiling) {
  Fixture f;
  GoldilocksOptions opts;
  GoldilocksScheduler sched(opts);
  const auto p = sched.Place(f.input);
  const auto loads = ServerLoads(p, f.demands, f.topo.num_servers());
  for (int s = 0; s < f.topo.num_servers(); ++s) {
    const auto& cap = f.topo.server_capacity(ServerId{s});
    const auto& l = loads[static_cast<std::size_t>(s)];
    EXPECT_LE(l.cpu, cap.cpu * opts.pee_utilization * 1.02);
    EXPECT_LE(l.mem_gb, cap.mem_gb * 1.02);
  }
}

TEST(Goldilocks, ColocatesCommunicatingPairs) {
  Fixture f;
  GoldilocksScheduler sched;
  const auto p = sched.Place(f.input);
  const auto& w = f.scenario->workload();
  // Weighted cut: heavy FE↔MC pairs should overwhelmingly be colocated or
  // same-rack.
  double colocated_flows = 0.0, total_flows = 0.0;
  for (const auto& e : w.edges) {
    total_flows += e.flows;
    const auto sa = p.of(e.a);
    const auto sb = p.of(e.b);
    if (sa.valid() && sb.valid() &&
        f.topo.HopDistance(sa, sb) <= 2) {
      colocated_flows += e.flows;
    }
  }
  EXPECT_GT(colocated_flows / total_flows, 0.7);
}

TEST(Goldilocks, BetterLocalityThanEPvm) {
  Fixture f;
  GoldilocksScheduler gold;
  EPvmScheduler epvm;
  const auto pg = gold.Place(f.input);
  const auto pe = epvm.Place(f.input);
  const auto& w = f.scenario->workload();
  auto mean_hops = [&](const Placement& p) {
    double hops = 0.0, weight = 0.0;
    for (const auto& e : w.edges) {
      const auto sa = p.of(e.a);
      const auto sb = p.of(e.b);
      if (sa.valid() && sb.valid()) {
        hops += f.topo.HopDistance(sa, sb) * e.flows;
        weight += e.flows;
      }
    }
    return hops / weight;
  };
  EXPECT_LT(mean_hops(pg), mean_hops(pe) * 0.6);
}

TEST(Goldilocks, UsesFarFewerServersThanEPvm) {
  Fixture f;
  GoldilocksScheduler gold;
  EPvmScheduler epvm;
  const int ng = gold.Place(f.input).NumActiveServers();
  const int ne = epvm.Place(f.input).NumActiveServers();
  // Paper Fig 9(a): E-PVM keeps all 16 on; Goldilocks needs ~9.
  EXPECT_EQ(ne, 16);
  EXPECT_LT(ng, ne);
  // ...but not fewer than the memory lower bound (440 GB over 57.6 GB
  // usable per server → at least 8).
  EXPECT_GE(ng, 8);
}

TEST(Goldilocks, GroupingExposedAndConsistent) {
  Fixture f;
  GoldilocksScheduler sched;
  const auto p = sched.Place(f.input);
  const auto& grouping = sched.last_grouping();
  EXPECT_EQ(grouping.size(), 176u);
  EXPECT_GT(sched.last_num_groups(), 1);
  // Containers of the same group share a server under the symmetric path.
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    for (std::size_t j = i + 1; j < grouping.size(); ++j) {
      if (grouping[i] >= 0 && grouping[i] == grouping[j]) {
        EXPECT_EQ(p.server_of[i], p.server_of[j]);
      }
    }
  }
}

TEST(Goldilocks, PeeCeilingSweepChangesActiveServers) {
  Fixture f;
  auto servers_at = [&](double pee) {
    GoldilocksOptions opts;
    opts.pee_utilization = pee;
    GoldilocksScheduler sched(opts);
    return sched.Place(f.input).NumActiveServers();
  };
  // Lower ceiling → more servers.
  EXPECT_GE(servers_at(0.5), servers_at(0.7));
  EXPECT_GE(servers_at(0.7), servers_at(0.95));
}

TEST(Goldilocks, RepartitionIntervalIsStable) {
  Fixture f;
  GoldilocksOptions opts;
  opts.repartition_interval = 10;
  GoldilocksScheduler sched(opts);
  const auto p1 = sched.Place(f.input);
  // Second epoch, slightly different demands, same actives: grouping reused
  // → placement identical (no migrations).
  auto d2 = f.scenario->DemandsAt(31);
  SchedulerInput in2 = f.input;
  in2.demands = d2;
  const auto p2 = sched.Place(in2);
  EXPECT_EQ(p2.MigrationsFrom(p1), 0);
}

TEST(Goldilocks, WarmSchedulerRepartitionsLikeAFreshOne) {
  // Repartitioning every epoch over one active set, a scheduler refreshes
  // the container graph it kept and reuses the root's coarsening. Its third
  // epoch must group and place exactly as a fresh scheduler does from the
  // same demands.
  MsrScenarioOptions mopts;
  mopts.trace_vertices = 200;
  const auto scenario = MakeMsrLargeScaleScenario(mopts);
  const Topology topo = Topology::FatTree(
      8, Resource{.cpu = 7200, .mem_gb = 1536, .net_mbps = 10000}, 10000.0);
  const auto active = scenario->ActiveAt(0);
  for (int epoch = 1; epoch < 3; ++epoch) {
    ASSERT_EQ(scenario->ActiveAt(epoch), active);
  }
  const auto place = [&](GoldilocksScheduler& sched, int epoch) {
    const auto demands = scenario->DemandsAt(epoch);
    SchedulerInput input;
    input.workload = &scenario->workload();
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
    return sched.Place(input);
  };
  GoldilocksScheduler warm;
  for (int epoch = 0; epoch < 2; ++epoch) place(warm, epoch);
  EXPECT_EQ(warm.partition_memo_hits(), 1u);
  const Placement warm_placement = place(warm, 2);
  EXPECT_EQ(warm.partition_memo_hits(), 2u);
  GoldilocksScheduler fresh;
  const Placement fresh_placement = place(fresh, 2);
  EXPECT_EQ(fresh.partition_memo_hits(), 0u);
  EXPECT_GT(warm.last_num_groups(), 1);
  EXPECT_EQ(warm.last_grouping(), fresh.last_grouping());
  EXPECT_EQ(warm_placement.server_of, fresh_placement.server_of);
  EXPECT_EQ(warm.StateDigest(), fresh.StateDigest());
}

TEST(Goldilocks, ReplicasLandOnDifferentServers) {
  // 4 replicas of a service plus filler traffic.
  Workload w;
  for (int i = 0; i < 4; ++i) {
    Container c;
    c.id = ContainerId{w.size()};
    c.demand = {.cpu = 100, .mem_gb = 2, .net_mbps = 10};
    c.replica_set = GroupId{7};
    w.containers.push_back(c);
  }
  // Each replica has a retinue of 3 clients talking to it heavily.
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 3; ++k) {
      Container c;
      c.id = ContainerId{w.size()};
      c.demand = {.cpu = 50, .mem_gb = 1, .net_mbps = 5};
      w.containers.push_back(c);
      w.edges.push_back({ContainerId{r}, c.id, 100.0});
    }
  }
  std::vector<Resource> demands;
  for (const auto& c : w.containers) demands.push_back(c.demand);
  std::vector<std::uint8_t> active(w.containers.size(), 1);
  Topology topo = Topology::LeafSpine(4, 2, 2, kCap, 1000.0);
  SchedulerInput input;
  input.workload = &w;
  input.demands = demands;
  input.active = active;
  input.topology = &topo;

  GoldilocksOptions opts;
  // Force fine groups so replicas cannot hide in one big group.
  opts.pee_utilization = 0.70;
  GoldilocksScheduler sched(opts);
  const auto p = sched.Place(input);
  std::set<int> servers;
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(p.server_of[static_cast<std::size_t>(r)].valid());
    servers.insert(p.server_of[static_cast<std::size_t>(r)].value());
  }
  // Min-cut must separate the negative clique: ≥ 2 distinct servers, and
  // the retinues follow their replica.
  EXPECT_GE(servers.size(), 2u);
}

TEST(Goldilocks, LocalityAblationKeepsPackingChangesAdjacency) {
  Fixture f;
  GoldilocksOptions with;
  GoldilocksOptions without;
  without.locality_order = false;
  GoldilocksScheduler a(with), b(without);
  const auto pa = a.Place(f.input);
  const auto pb = b.Place(f.input);
  EXPECT_NEAR(pa.NumActiveServers(), pb.NumActiveServers(), 2);
}

TEST(Goldilocks, IncrementalModeStillPlacesEverything) {
  Fixture f;
  GoldilocksOptions opts;
  opts.incremental_repartition = true;
  GoldilocksScheduler sched(opts);
  // First call: no cache → full partition. Second call with shifted
  // demands: incremental repair path.
  const auto p1 = sched.Place(f.input);
  auto d2 = f.scenario->DemandsAt(45);
  SchedulerInput in2 = f.input;
  in2.demands = d2;
  const auto p2 = sched.Place(in2);
  for (std::size_t i = 0; i < p2.server_of.size(); ++i) {
    EXPECT_TRUE(p2.server_of[i].valid()) << i;
  }
  EXPECT_GT(p1.num_placed(), 0);
}

TEST(Goldilocks, IncrementalModeMigratesLessThanFresh) {
  Fixture f;
  auto total_migrations = [&](bool incremental) {
    GoldilocksOptions opts;
    opts.incremental_repartition = incremental;
    opts.repartition_interval = 1;  // re-plan every epoch
    GoldilocksScheduler sched(opts);
    Placement prev;
    int total = 0;
    for (int e = 20; e <= 40; e += 5) {
      auto d = f.scenario->DemandsAt(e);
      SchedulerInput in = f.input;
      in.demands = d;
      in.previous = prev.server_of.empty() ? nullptr : &prev;
      const auto p = sched.Place(in);
      if (!prev.server_of.empty()) total += p.MigrationsFrom(prev);
      prev = p;
    }
    return total;
  };
  const int fresh = total_migrations(false);
  const int incremental = total_migrations(true);
  EXPECT_LT(incremental, fresh);
}

// 2 × `pairs` containers whose NIC demand alone nearly fills a server's PEE
// ceiling. With `chatty`, each pair exchanges all its traffic, so a group of
// pairs needs no NIC once colocated; without it, every container needs a
// server of its own.
Workload PairWorkload(int pairs, bool chatty) {
  Workload w;
  for (int i = 0; i < 2 * pairs; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 100, .mem_gb = 1, .net_mbps = 600};
    w.containers.push_back(c);
  }
  for (int p = 0; chatty && p < pairs; ++p) {
    w.edges.push_back({ContainerId{2 * p}, ContainerId{2 * p + 1}, 50.0});
  }
  return w;
}

TEST(Goldilocks, ReusedSchedulerMatchesFreshOnNewWorkload) {
  // The scheduler caches per-workload data across Place calls. Workload B
  // takes over workload A's storage, so only the cache key's sizes tell the
  // two apart; pricing B with A's flows would give every container its own
  // server.
  const Topology topo = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  Workload workload;
  const auto place = [&](GoldilocksScheduler& sched) {
    std::vector<Resource> demands;
    for (const auto& c : workload.containers) demands.push_back(c.demand);
    const std::vector<std::uint8_t> active(workload.containers.size(), 1);
    SchedulerInput input;
    input.workload = &workload;
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
    return sched.Place(input);
  };

  GoldilocksScheduler reused;
  workload = PairWorkload(6, /*chatty=*/false);
  EXPECT_EQ(place(reused).NumActiveServers(), 12);
  workload = PairWorkload(4, /*chatty=*/true);
  const Placement second = place(reused);
  GoldilocksScheduler fresh;
  const Placement expected = place(fresh);
  EXPECT_LT(expected.NumActiveServers(), 8);
  EXPECT_EQ(second.server_of, expected.server_of);
}

TEST(Goldilocks, SpillPlacesOversizedGroupsWithinCapacity) {
  // Flow-less containers keep their full NIC demand in any group, so every
  // multi-container group outgrows the 700 Mbps PEE ceiling and is spilled
  // container by container. A 750 Mbps container fits no server at the
  // ceiling and takes the last-resort full-capacity stage; a 600 Mbps one
  // still fits the ceiling on a server of its own.
  const Topology topo = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 12; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 100, .mem_gb = 1, .net_mbps = i < 6 ? 750.0 : 600.0};
    w.containers.push_back(c);
  }
  std::vector<Resource> demands;
  for (const auto& c : w.containers) demands.push_back(c.demand);
  const std::vector<std::uint8_t> active(w.containers.size(), 1);
  SchedulerInput input;
  input.workload = &w;
  input.demands = demands;
  input.active = active;
  input.topology = &topo;

  GoldilocksScheduler sched;
  const Placement p = sched.Place(input);
  const auto loads = ServerLoads(p, demands, topo.num_servers());
  for (const auto& load : loads) EXPECT_LE(load.net_mbps, 1000.0);
  for (int i = 0; i < 12; ++i) {
    const ServerId s = p.server_of[static_cast<std::size_t>(i)];
    ASSERT_TRUE(s.valid()) << "container " << i;
    if (i >= 6) {
      EXPECT_LE(loads[static_cast<std::size_t>(s.value())].net_mbps, 700.0)
          << "container " << i;
    }
  }
  EXPECT_EQ(p.NumActiveServers(), 12);
}

TEST(Goldilocks, HandlesAzureChurn) {
  const auto scenario = MakeAzureMixScenario();
  Topology topo = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  GoldilocksScheduler sched;
  for (int e = 0; e < 10; ++e) {
    const auto demands = scenario->DemandsAt(e);
    const auto active = scenario->ActiveAt(e);
    SchedulerInput input;
    input.workload = &scenario->workload();
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
    const auto p = sched.Place(input);
    for (std::size_t i = 0; i < p.server_of.size(); ++i) {
      EXPECT_EQ(p.server_of[i].valid(), active[i] != 0) << "epoch " << e;
    }
  }
}

TEST(Goldilocks, StrandedGroupWalksAgainFirst) {
  // On the testbed, Azure mix epochs 2164 and 2306 form 22 and 21 groups
  // for 16 servers. The locality-order walk has touched every server
  // before it reaches the group holding container 27 alone (57 GB of a
  // 64 GB server), and no server has that much memory left. The second
  // walk lays that group first, onto server 0 while it is empty, and every
  // active container is placed.
  AzureScenarioOptions sopts;
  sopts.num_epochs = 3000;
  const auto scenario = MakeAzureMixScenario(sopts);
  const Topology topo = Topology::Testbed16();
  for (const int e : {2164, 2306}) {
    SCOPED_TRACE(e);
    const auto demands = scenario->DemandsAt(e);
    const auto active = scenario->ActiveAt(e);
    ASSERT_EQ(active[27], 1);
    ASSERT_EQ(demands[27].mem_gb, 57.0);
    SchedulerInput input;
    input.workload = &scenario->workload();
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
    GoldilocksScheduler sched;
    const auto p = sched.Place(input);
    EXPECT_GT(sched.last_num_groups(), topo.num_servers());
    for (std::size_t i = 0; i < p.server_of.size(); ++i) {
      EXPECT_EQ(p.server_of[i].valid(), active[i] != 0) << "container " << i;
    }
    EXPECT_EQ(p.server_of[27], ServerId{0});
  }
}

TEST(Goldilocks, NoReservationsOnFullBisectionTopologies) {
  Fixture f;
  for (const Topology& topo :
       {Topology::FatTree(4, kCap, 1000.0), Topology::Testbed16()}) {
    ASSERT_FALSE(topo.has_checked_uplinks());
    SchedulerInput input = f.input;
    input.topology = &topo;
    GoldilocksScheduler sched;
    const Placement p = sched.Place(input);
    EXPECT_EQ(p.num_placed(), 176);
    EXPECT_TRUE(p.uplink_reserved_mbps.empty());
  }
}

// --- Sec. IV: asymmetric topologies ---------------------------------------------------
//
// Each group is a Virtual Cluster whose Eq. (4)/(5) reservation must fit
// every checked uplink above its server (core/uplink_reservations.h).

// `services` services of `per_service` identical containers; each service
// is a clique of heavy flows, and consecutive services share one light flow.
struct ServiceWorld {
  ServiceWorld(int services, int per_service, const Resource& demand) {
    for (int sv = 0; sv < services; ++sv) {
      const int first = w.size();
      for (int i = 0; i < per_service; ++i) {
        Container c;
        c.id = ContainerId{w.size()};
        c.demand = demand;
        c.service = sv;
        w.containers.push_back(c);
        for (int j = first; j < c.id.value(); ++j) {
          w.edges.push_back({ContainerId{j}, c.id, 100.0});
        }
      }
      if (sv > 0) w.edges.push_back({ContainerId{first - 1},
                                     ContainerId{first}, 1.0});
    }
    demands.assign(w.containers.size(), demand);
    active.assign(w.containers.size(), 1);
  }
  Placement Place(const Topology& topo) {
    SchedulerInput input;
    input.workload = &w;
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
    GoldilocksScheduler sched;
    return sched.Place(input);
  }
  Workload w;
  std::vector<Resource> demands;
  std::vector<std::uint8_t> active;
};

NodeId AncestorOf(const Topology& topo, ServerId s, int level) {
  return topo.AncestorAt(topo.server_node(s), level);
}

// Every reservation a placement carries fits its uplink.
void ExpectReservationsWithinCapacity(const Topology& topo,
                                      const Placement& p) {
  for (std::size_t n = 0; n < p.uplink_reserved_mbps.size(); ++n) {
    EXPECT_LE(p.uplink_reserved_mbps[n],
              topo.uplink_capacity(NodeId{static_cast<int>(n)}) + 1e-6)
        << "node " << n;
  }
}

TEST(VirtualCluster, PlacesSmallGroupOnOneRack) {
  // A pod at half its uplinks makes the walk check Eq. (4)/(5). A group
  // that fits one server lands whole on it, the smallest subtree, and with
  // no other group its reservation is min(ΣB, 0) = 0.
  Topology topo = Topology::FatTree(4, kCap, 1000.0);
  const NodeId pod0 = topo.NodesAtLevel(2).front();
  topo.DegradeUplink(pod0, 0.5);
  ServiceWorld world(1, 2, {.cpu = 500, .mem_gb = 8, .net_mbps = 100});
  const Placement p = world.Place(topo);
  ASSERT_TRUE(p.server_of[0].valid());
  EXPECT_EQ(p.server_of[0], p.server_of[1]);
  ASSERT_EQ(p.uplink_reserved_mbps.size(),
            static_cast<std::size_t>(topo.num_nodes()));
  EXPECT_DOUBLE_EQ(p.uplink_reserved_mbps[static_cast<std::size_t>(
                       pod0.value())], 0.0);
}

TEST(VirtualCluster, RespectsServerCeilings) {
  // One spine under every pair of servers: each leaf uplink is checked.
  const Topology topo = Topology::LeafSpine(4, 2, 1, kCap, 1000.0);
  ASSERT_TRUE(topo.has_checked_uplinks());
  ServiceWorld world(4, 2, {.cpu = 1000, .mem_gb = 10, .net_mbps = 100});
  const Placement p = world.Place(topo);
  EXPECT_EQ(p.num_placed(), 8);
  const auto loads = ServerLoads(p, world.demands, topo.num_servers());
  for (const auto& load : loads) {
    EXPECT_LE(load.cpu, kCap.cpu * GoldilocksOptions{}.pee_utilization + 1e-6);
  }
  ExpectReservationsWithinCapacity(topo, p);
}

TEST(VirtualCluster, BandwidthConstraintForcesSpread) {
  // 100 Mbps leaf uplinks over two 100 Mbps servers. Each 3-container
  // service fits one server's CPU, but its ΣB = 120 Mbps cannot sit behind
  // one leaf while the other service is pending or placed elsewhere, so
  // Eq. (4)/(5) spreads its containers over leaves.
  const Topology topo = Topology::LeafSpine(8, 2, 1, kCap, 100.0);
  ServiceWorld world(2, 3, {.cpu = 600, .mem_gb = 2, .net_mbps = 40});
  const Placement p = world.Place(topo);
  EXPECT_EQ(p.num_placed(), 6);
  std::set<int> leaves;
  for (const auto s : p.server_of) {
    leaves.insert(AncestorOf(topo, s, 1).value());
  }
  EXPECT_GE(leaves.size(), 3u);
  ASSERT_FALSE(p.uplink_reserved_mbps.empty());
  ExpectReservationsWithinCapacity(topo, p);
}

TEST(VirtualCluster, HeterogeneousServersUsed) {
  Topology topo = Topology::LeafSpine(4, 2, 2, kCap, 1000.0);
  // Shrink half of the servers.
  for (int s = 0; s < topo.num_servers(); s += 2) {
    topo.set_server_capacity(ServerId{s}, kCap * 0.25);
  }
  ServiceWorld world(1, 4, {.cpu = 1500, .mem_gb = 8, .net_mbps = 50});
  const Placement p = world.Place(topo);
  // cpu 1500 fits only the big servers (small ceiling = 0.25·3200·0.7=560).
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.server_of[i].valid());
    EXPECT_EQ(p.server_of[i].value() % 2, 1) << "landed on a small server";
  }
}

TEST(VirtualCluster, DegradedUplinkAvoided) {
  // Pod 0 keeps 1% of its uplinks (40 Mbps). Two services of four
  // containers, each service one server's worth of CPU, send 300 Mbps per
  // container and talk to each other: either one in pod 0 would reserve
  // its full ΣB = 1200 Mbps there, so both leave for healthy pods. A walk
  // blind to the uplink puts both on pod 0's first servers.
  Topology topo = Topology::FatTree(4, kCap, 1000.0);
  const NodeId pod0 = topo.NodesAtLevel(2).front();
  topo.DegradeUplink(pod0, 0.01);
  ServiceWorld world(2, 4, {.cpu = 500, .mem_gb = 2, .net_mbps = 300});
  const Placement p = world.Place(topo);
  EXPECT_EQ(p.num_placed(), 8);
  for (const auto s : p.server_of) EXPECT_NE(AncestorOf(topo, s, 2), pod0);
  ASSERT_FALSE(p.uplink_reserved_mbps.empty());
  ExpectReservationsWithinCapacity(topo, p);
}

TEST(VirtualCluster, LocalitySiblingsShareSubtree) {
  // Four pair-sized groups fill servers left-most first, so the sibling
  // groups share the first pod.
  const Topology topo = Topology::FatTree(4, kCap, 10000.0);
  ServiceWorld world(4, 2, {.cpu = 1000, .mem_gb = 4, .net_mbps = 10});
  const Placement p = world.Place(topo);
  const NodeId pod_of_0 = AncestorOf(topo, p.server_of[0], 2);
  for (const auto s : p.server_of) EXPECT_EQ(AncestorOf(topo, s, 2), pod_of_0);
  EXPECT_TRUE(p.uplink_reserved_mbps.empty());
}

TEST(VirtualCluster, GoldilocksEndToEndOnAsymmetricTopology) {
  // Full pipeline: heterogeneous servers + degraded link via the scheduler.
  Topology topo = Topology::FatTree(4, kCap, 1000.0);
  for (int s = 0; s < topo.num_servers(); s += 3) {
    topo.set_server_capacity(ServerId{s}, kCap * 0.5);
  }
  topo.DegradeUplink(topo.NodesAtLevel(2)[1], 0.5);
  ASSERT_TRUE(topo.uplink_checked(topo.NodesAtLevel(2)[1]));

  const auto scenario = MakeTwitterCachingScenario();
  const auto demands = scenario->DemandsAt(10);
  const auto active = scenario->ActiveAt(10);
  SchedulerInput input;
  input.workload = &scenario->workload();
  input.demands = demands;
  input.active = active;
  input.topology = &topo;

  GoldilocksOptions opts;
  GoldilocksScheduler sched(opts);
  const auto p = sched.Place(input);
  EXPECT_EQ(p.num_placed(), 176);
  // Ceilings hold per heterogeneous capacity.
  const auto loads = ServerLoads(p, demands, topo.num_servers());
  for (int s = 0; s < topo.num_servers(); ++s) {
    const auto& cap = topo.server_capacity(ServerId{s});
    EXPECT_LE(loads[static_cast<std::size_t>(s)].cpu,
              cap.cpu * opts.pee_utilization * 1.02);
  }
  ASSERT_FALSE(p.uplink_reserved_mbps.empty());
  ExpectReservationsWithinCapacity(topo, p);
}

}  // namespace
}  // namespace gl
