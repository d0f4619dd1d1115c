// Property-based suites: invariants that must hold for every policy, every
// scenario, and arbitrary seeds — the harness the unit tests can't provide.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/goldilocks.h"
#include "graph/partitioner.h"
#include "schedulers/borg.h"
#include "schedulers/e_pvm.h"
#include "schedulers/mpp.h"
#include "schedulers/random_scheduler.h"
#include "schedulers/rc_informed.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};

std::unique_ptr<Scheduler> MakePolicy(const std::string& name) {
  if (name == "goldilocks") return std::make_unique<GoldilocksScheduler>();
  if (name == "e-pvm") return std::make_unique<EPvmScheduler>();
  if (name == "e-pvm-oc") {
    return std::make_unique<EPvmScheduler>(1.0, EPvmMode::kOpportunityCost);
  }
  if (name == "mpp") return std::make_unique<MppScheduler>();
  if (name == "borg") return std::make_unique<BorgScheduler>();
  if (name == "rc") return std::make_unique<RcInformedScheduler>();
  return std::make_unique<RandomScheduler>();
}

// ---------------------------------------------------------------------------
// Placement invariants across (policy × scenario × epoch).
// ---------------------------------------------------------------------------
class PlacementInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::string,
                                                 int>> {};

TEST_P(PlacementInvariants, Hold) {
  const auto [policy_name, scenario_name, epoch] = GetParam();
  std::unique_ptr<Scenario> scenario;
  if (scenario_name == "twitter") {
    scenario = MakeTwitterCachingScenario();
  } else {
    scenario = MakeAzureMixScenario();
  }
  const Topology topo = Topology::Testbed16();
  const auto demands = scenario->DemandsAt(epoch);
  const auto active = scenario->ActiveAt(epoch);
  SchedulerInput input;
  input.workload = &scenario->workload();
  input.demands = demands;
  input.active = active;
  input.topology = &topo;

  auto policy = MakePolicy(policy_name);
  const Placement p = policy->Place(input);

  // 1. Inactive containers are never placed.
  for (std::size_t i = 0; i < p.server_of.size(); ++i) {
    if (!active[i]) {
      EXPECT_FALSE(p.server_of[i].valid())
          << policy_name << " placed inactive container " << i;
    }
  }
  // 2. Server ids are in range.
  for (const auto s : p.server_of) {
    if (s.valid()) {
      EXPECT_GE(s.value(), 0);
      EXPECT_LT(s.value(), topo.num_servers());
    }
  }
  // 3. No server exceeds its full physical capacity by more than float
  //    noise in CPU or memory. Two deliberate exceptions: RC-Informed
  //    packs against *reservations*, so live CPU may overshoot (the
  //    oversubscription risk the paper criticizes); and network demand is
  //    a hose-model estimate (colocated traffic never reaches the NIC).
  const auto loads = ServerLoads(p, demands, topo.num_servers());
  for (int s = 0; s < topo.num_servers(); ++s) {
    const auto& cap = topo.server_capacity(ServerId{s});
    const auto& l = loads[static_cast<std::size_t>(s)];
    if (policy_name != "rc") {
      EXPECT_LE(l.cpu, cap.cpu * 1.001) << policy_name << " server " << s;
    }
    EXPECT_LE(l.mem_gb, cap.mem_gb * 1.001)
        << policy_name << " server " << s;
  }
  // 4. Determinism: a fresh instance of the policy reproduces the result.
  auto policy2 = MakePolicy(policy_name);
  const Placement p2 = policy2->Place(input);
  EXPECT_EQ(p.server_of, p2.server_of) << policy_name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementInvariants,
    ::testing::Combine(::testing::Values("goldilocks", "e-pvm", "e-pvm-oc",
                                         "mpp", "borg", "rc", "random"),
                       ::testing::Values("twitter", "azure"),
                       ::testing::Values(0, 29, 55)));

// ---------------------------------------------------------------------------
// Partitioner invariants on random graphs.
// ---------------------------------------------------------------------------
class PartitionerInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerInvariants, Hold) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  CsrGraphBuilder builder;
  const int n = 64 + static_cast<int>(rng.NextBelow(400));
  for (int i = 0; i < n; ++i) {
    builder.AddVertex(Resource{.cpu = rng.Uniform(1, 50),
                               .mem_gb = rng.Uniform(0.5, 8),
                               .net_mbps = rng.Uniform(1, 40)},
                      rng.Uniform(0.2, 3.0));
  }
  const int edges = n * 4;
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a != b) builder.AddEdge(a, b, rng.Uniform(0.1, 20.0));
  }
  const CsrGraph g = builder.Build();

  const Resource ceiling{.cpu = g.total_demand().cpu / 7.0,
                         .mem_gb = g.total_demand().mem_gb / 7.0,
                         .net_mbps = 1e12};
  const auto fits = [&](const Resource& d) { return d.FitsIn(ceiling); };
  const auto r = RecursivePartition(g, fits, {});

  // Every vertex assigned, every group non-empty, cut matches assignment.
  std::vector<Resource> sums(static_cast<std::size_t>(r.num_groups));
  std::vector<int> sizes(static_cast<std::size_t>(r.num_groups), 0);
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const int gid = r.group_of[static_cast<std::size_t>(v)];
    ASSERT_GE(gid, 0);
    ASSERT_LT(gid, r.num_groups);
    sums[static_cast<std::size_t>(gid)] += g.demand(v);
    ++sizes[static_cast<std::size_t>(gid)];
  }
  for (int gid = 0; gid < r.num_groups; ++gid) {
    EXPECT_GT(sizes[static_cast<std::size_t>(gid)], 0);
    // Terminal groups satisfy the predicate unless they are singletons.
    if (sizes[static_cast<std::size_t>(gid)] > 1) {
      EXPECT_TRUE(fits(sums[static_cast<std::size_t>(gid)]));
    }
  }
  EXPECT_NEAR(g.CutWeightKWay(r.group_of), r.cut_weight, 1e-6);

  // Ascending group id is locality order.
  ASSERT_EQ(static_cast<int>(r.group_path.size()), r.num_groups);
  for (std::size_t i = 1; i < r.group_path.size(); ++i) {
    EXPECT_LT(r.group_path[i - 1], r.group_path[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerInvariants,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Topology invariants across factories.
// ---------------------------------------------------------------------------
class TopologyInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(TopologyInvariants, Hold) {
  const std::string kind = GetParam();
  Topology topo = kind == "fattree"     ? Topology::FatTree(6, kCap, 1000.0)
                  : kind == "leafspine" ? Topology::LeafSpine(6, 3, 2, kCap,
                                                              1000.0)
                  : kind == "vl2"       ? Topology::Vl2(16, kCap)
                                        : Topology::Testbed16();

  // Hop distance: identity, symmetry, bounded by 2×levels.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const ServerId a{static_cast<int>(rng.NextBelow(topo.num_servers()))};
    const ServerId b{static_cast<int>(rng.NextBelow(topo.num_servers()))};
    const int d = topo.HopDistance(a, b);
    EXPECT_EQ(d, topo.HopDistance(b, a));
    EXPECT_GE(d, a == b ? 0 : 2);
    EXPECT_LE(d, 2 * (topo.num_levels() - 1));
    EXPECT_EQ(topo.HopDistance(a, a), 0);
  }
  // ServersUnder(root) covers every server exactly once.
  const auto servers = topo.ServersUnder(topo.root());
  EXPECT_EQ(static_cast<int>(servers.size()), topo.num_servers());
  std::vector<bool> seen(static_cast<std::size_t>(topo.num_servers()), false);
  for (const auto s : servers) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(s.value())]);
    seen[static_cast<std::size_t>(s.value())] = true;
  }
  // Every server's leaf node chains to the root.
  for (int s = 0; s < topo.num_servers(); ++s) {
    NodeId cur = topo.server_node(ServerId{s});
    int steps = 0;
    while (topo.node(cur).parent.valid() && steps < 16) {
      cur = topo.node(cur).parent;
      ++steps;
    }
    EXPECT_EQ(cur, topo.root());
  }
  // Level partition: counts of nodes at each level sum to num_nodes.
  int total = 0;
  for (int level = 0; level < topo.num_levels(); ++level) {
    total += static_cast<int>(topo.NodesAtLevel(level).size());
  }
  EXPECT_EQ(total, topo.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Kinds, TopologyInvariants,
                         ::testing::Values("fattree", "leafspine", "vl2",
                                           "testbed"));

// ---------------------------------------------------------------------------
// Power-model invariants across the preset zoo.
// ---------------------------------------------------------------------------
class PowerInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PowerInvariants, Hold) {
  const int which = GetParam();
  const ServerPowerModel m =
      which == 0   ? ServerPowerModel::Linear2010()
      : which == 1 ? ServerPowerModel::Dell2018()
      : which == 2 ? ServerPowerModel::DellR940()
      : which == 3 ? ServerPowerModel::Facebook1S()
      : which == 4 ? ServerPowerModel::MicrosoftBlade()
                   : ServerPowerModel::WithPeePoint(0.55 + 0.05 * which);
  // Monotone, bounded, endpoints sane.
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double p = m.Power(i / 100.0);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, m.max_watts() * 1.0001);
    prev = p;
  }
  EXPECT_NEAR(m.Power(1.0), m.max_watts(), 1e-9);
  // Efficiency is unimodal with the peak at the declared PEE point.
  EXPECT_NEAR(m.PeakEfficiencyUtilization(), m.pee_utilization(), 0.011);
}

INSTANTIATE_TEST_SUITE_P(Models, PowerInvariants, ::testing::Range(0, 9));

}  // namespace
}  // namespace gl
