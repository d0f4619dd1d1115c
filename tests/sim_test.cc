#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>

#include "common/state_hash.h"
#include "core/goldilocks.h"
#include "schedulers/e_pvm.h"
#include "sim/estimator.h"
#include "sim/latency.h"
#include "sim/migration.h"
#include "sim/simulator.h"
#include "netsim/traffic.h"
#include "obs/metrics.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};

// --- traffic estimation --------------------------------------------------------------

TEST(Traffic, IntraServerTrafficStaysLocal) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 100};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 100});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{0}};
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  EXPECT_GT(t.edge_mbps[0], 0.0);
  for (const double load : t.node_uplink_mbps) EXPECT_DOUBLE_EQ(load, 0.0);
}

TEST(Traffic, CrossServerTrafficLoadsPath) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 100};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 100});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{2}};  // different leaves
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  // The single edge carries the full 100 Mbps of each endpoint.
  EXPECT_NEAR(t.edge_mbps[0], 100.0, 1e-9);
  // Leaf uplinks of both racks are loaded.
  const NodeId leaf0 = topo.AncestorAt(topo.server_node(ServerId{0}), 1);
  const NodeId leaf1 = topo.AncestorAt(topo.server_node(ServerId{2}), 1);
  EXPECT_NEAR(t.node_uplink_mbps[static_cast<std::size_t>(leaf0.value())],
              100.0, 1e-9);
  EXPECT_NEAR(t.node_uplink_mbps[static_cast<std::size_t>(leaf1.value())],
              100.0, 1e-9);
}

TEST(Traffic, SplitsDemandByFlowWeights) {
  Topology topo = Topology::LeafSpine(4, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 3; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 90};
    w.containers.push_back(c);
  }
  // Container 0 talks to 1 (weight 2) and 2 (weight 1): 60/30 split.
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 2.0});
  w.edges.push_back({ContainerId{0}, ContainerId{2}, 1.0});
  std::vector<Resource> demands(3, {.cpu = 10, .mem_gb = 1, .net_mbps = 90});
  std::vector<std::uint8_t> active(3, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{2}, ServerId{4}};
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  EXPECT_GT(t.edge_mbps[0], t.edge_mbps[1]);
}

TEST(Traffic, InactiveEdgesCarryNothing) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 100});
  std::vector<std::uint8_t> active{1, 0};
  Placement p;
  p.server_of = {ServerId{0}, ServerId{2}};
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  EXPECT_DOUBLE_EQ(t.edge_mbps[0], 0.0);
}

// --- latency model --------------------------------------------------------------------

TEST(Latency, QueueFactorShape) {
  Topology topo = Topology::Testbed16();
  LatencyModel m(topo);
  EXPECT_NEAR(m.QueueFactor(0.0), 1.0, 1e-9);
  EXPECT_LT(m.QueueFactor(0.3), m.QueueFactor(0.7));
  EXPECT_LT(m.QueueFactor(0.7), m.QueueFactor(0.95));
  // Cap holds even at overload.
  LatencyOptions opts;
  EXPECT_LE(m.QueueFactor(1.5), opts.max_queue_factor);
}

TEST(Latency, CongestionFactorShape) {
  Topology topo = Topology::Testbed16();
  LatencyModel m(topo);
  EXPECT_NEAR(m.CongestionFactor(0.0), 1.0, 1e-9);
  EXPECT_GT(m.CongestionFactor(0.8), 2.0);
  LatencyOptions opts;
  EXPECT_LE(m.CongestionFactor(2.0), opts.max_congestion_factor);
}

TEST(Latency, ColocationBeatsCrossFabric) {
  Topology topo = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.app = i == 0 ? AppType::kFrontend : AppType::kMemcached;
    c.demand = {.cpu = 30, .mem_gb = 4, .net_mbps = 20};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 100.0, true});
  std::vector<Resource> demands(2, {.cpu = 30, .mem_gb = 4, .net_mbps = 20});
  std::vector<std::uint8_t> active(2, 1);

  LatencyModel m(topo);
  Placement together, apart;
  together.server_of = {ServerId{0}, ServerId{0}};
  apart.server_of = {ServerId{0}, ServerId{14}};
  const auto t1 = EstimateTraffic(w, together, demands, active, topo);
  const auto t2 = EstimateTraffic(w, apart, demands, active, topo);
  const auto r1 = m.ComputeTct(w, together, demands, active, t1);
  const auto r2 = m.ComputeTct(w, apart, demands, active, t2);
  EXPECT_LT(r1.mean_ms, r2.mean_ms);
  EXPECT_EQ(r1.query_edges, 1);
}

TEST(Latency, OverloadedServerHurts) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.app = i == 0 ? AppType::kFrontend : AppType::kMemcached;
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0, true});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{0}};
  LatencyModel m(topo);

  std::vector<Resource> light(2, {.cpu = 160, .mem_gb = 1, .net_mbps = 5});
  std::vector<Resource> heavy(2, {.cpu = 1550, .mem_gb = 1, .net_mbps = 5});
  const auto tl = EstimateTraffic(w, p, light, active, topo);
  const auto th = EstimateTraffic(w, p, heavy, active, topo);
  EXPECT_LT(m.ComputeTct(w, p, light, active, tl).mean_ms,
            m.ComputeTct(w, p, heavy, active, th).mean_ms);
}

TEST(Latency, NonQueryEdgesIgnored) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0, false});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 5});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{1}};
  LatencyModel m(topo);
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  const auto r = m.ComputeTct(w, p, demands, active, t);
  EXPECT_EQ(r.query_edges, 0);
  EXPECT_DOUBLE_EQ(r.mean_ms, 0.0);
}

// --- migration cost --------------------------------------------------------------------

TEST(Migration, CountsOnlyMoves) {
  Workload w;
  for (int i = 0; i < 3; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  std::vector<Resource> demands(3, {.cpu = 10, .mem_gb = 4, .net_mbps = 5});
  Placement before, after;
  before.server_of = {ServerId{0}, ServerId{1}, ServerId{2}};
  after.server_of = {ServerId{0}, ServerId{5}, ServerId{2}};
  const auto cost = ComputeMigrationCost(before, after, w, demands);
  EXPECT_EQ(cost.migrations, 1);
  EXPECT_GT(cost.total_downtime_ms, 0.0);
  EXPECT_GT(cost.traffic_gb, 4.0);  // ≥ the 4 GB image
}

TEST(Migration, DowntimeScalesWithMemory) {
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  Placement before, after;
  before.server_of = {ServerId{0}, ServerId{0}};
  after.server_of = {ServerId{1}, ServerId{1}};
  std::vector<Resource> small(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 5});
  std::vector<Resource> big(2, {.cpu = 10, .mem_gb = 32, .net_mbps = 5});
  const auto c_small = ComputeMigrationCost(before, after, w, small);
  const auto c_big = ComputeMigrationCost(before, after, w, big);
  EXPECT_GT(c_big.total_downtime_ms, c_small.total_downtime_ms * 5.0);
}

TEST(Migration, NoMovesNoCost) {
  Workload w;
  Container c;
  c.id = ContainerId{0};
  w.containers.push_back(c);
  Placement p;
  p.server_of = {ServerId{3}};
  std::vector<Resource> demands(1, {.cpu = 1, .mem_gb = 1, .net_mbps = 1});
  const auto cost = ComputeMigrationCost(p, p, w, demands);
  EXPECT_EQ(cost.migrations, 0);
  EXPECT_DOUBLE_EQ(cost.total_downtime_ms, 0.0);
}

// --- experiment runner -------------------------------------------------------------------

TEST(Runner, ProducesPerEpochMetrics) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 5;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);
  EPvmScheduler sched;
  const auto result = runner.Run(sched);
  ASSERT_EQ(result.epochs.size(), 5u);
  for (const auto& m : result.epochs) {
    EXPECT_EQ(m.unplaced_containers, 0);
    EXPECT_GT(m.total_watts, 0.0);
    EXPECT_GT(m.mean_tct_ms, 0.0);
    EXPECT_GT(m.rps, 0.0);
    EXPECT_GT(m.energy_per_request_j, 0.0);
  }
  EXPECT_EQ(result.scheduler, "E-PVM");
}

TEST(Runner, EPvmKeepsAllServersActive) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 3;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);
  EPvmScheduler sched;
  const auto result = runner.Run(sched);
  for (const auto& m : result.epochs) EXPECT_EQ(m.active_servers, 16);
}

TEST(Runner, AverageAggregates) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 4;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);
  GoldilocksScheduler sched;
  const auto result = runner.Run(sched);
  const auto avg = result.Average();
  double watts = 0;
  for (const auto& m : result.epochs) watts += m.total_watts;
  EXPECT_NEAR(avg.total_watts, watts / 4.0, 1e-6);
  EXPECT_GT(avg.active_servers, 0);
}

TEST(Runner, MigrationsTrackedAcrossEpochs) {
  // A long repartition interval reuses groupings (and their servers) while
  // demands still fit, so it migrates far less than per-epoch re-planning.
  // It cannot be zero: a group that outgrows its server forces a refresh.
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 8;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);

  auto total_migrations = [&](int interval) {
    GoldilocksOptions gopts;
    gopts.repartition_interval = interval;
    GoldilocksScheduler sched(gopts);
    const auto result = runner.Run(sched);
    EXPECT_EQ(result.epochs[0].migrations, 0);  // nothing before epoch 0
    int total = 0;
    for (const auto& m : result.epochs) total += m.migrations;
    return total;
  };
  const int stable = total_migrations(100);
  const int churny = total_migrations(1);
  EXPECT_LT(stable, churny / 2 + 1);
}

TEST(Runner, ReuseEpochsBitIdentical) {
  // Repartitioning every 4th epoch makes most epochs reuse the cached
  // grouping. The constants pin each epoch's hashes and TCT bit patterns:
  // the reuse path (cached flow adjacency, group pricing) and the TCT
  // evaluation must reproduce them exactly.
  struct Expected {
    std::uint64_t placement, loads, power, rng, mean_tct_bits, p99_tct_bits;
  };
  constexpr Expected kExpected[] = {
      {0x8eab0325a7f45535ULL, 0xea96d0ff5a7ebd9cULL, 0x5aea3cbc87771b23ULL,
       0x6b0b03a1420b7281ULL, 0x3fe9b426b295d377ULL, 0x3fe9c2a742a3d440ULL},
      {0x8eab0325a7f45535ULL, 0xf94c324bd3b706a3ULL, 0xfe07703f5870933fULL,
       0xd9f439e5a1ebc000ULL, 0x3feb390fc14d08ebULL, 0x3feba35391980fb0ULL},
      {0x8eab0325a7f45535ULL, 0x4be2cad74e30d9ffULL, 0xa790ca9c5b41a4f7ULL,
       0x481ecbf66f935483ULL, 0x3ff18eea5e9240c9ULL, 0x3ff3ae1843b2da79ULL},
      {0x8eab0325a7f45535ULL, 0xeb391d1d4a1db9c0ULL, 0xb56f60c45a03a702ULL,
       0x84313e1123b48702ULL, 0x4000e389c4fdc79cULL, 0x4004a421e5c06f12ULL},
      {0xe311ebeef132f315ULL, 0x81fc8dfc68b4cdbfULL, 0x59bffb3c1ba39ac4ULL,
       0x79e7f5852eec5b89ULL, 0x3ff8c9575ab1301aULL, 0x401509c508dad996ULL},
      {0xe311ebeef132f315ULL, 0x8412712b09b494adULL, 0xc33e0b534fe517b0ULL,
       0x6c863c6a6f7523c8ULL, 0x40106a7bf5b7699dULL, 0x402812f9b99af8afULL},
      {0x68b6388efa59bdb8ULL, 0xeef83439c368c7cfULL, 0x0716a4a5979b9592ULL,
       0x1f35b070b142a0adULL, 0x4008257375cd2547ULL, 0x402a8210ef216976ULL},
      {0x730d050bd8c2dc59ULL, 0xaeefee7c63c01b8bULL, 0x247bef544bf6136cULL,
       0x7ff93117f4ecdcb1ULL, 0x4002f7ed76dbc287ULL, 0x401875a3b1cbcb9fULL},
      {0x0220d220cd4cce15ULL, 0x25cd06b1d341cbfbULL, 0x81b82783c6a4e9e0ULL,
       0xb6015693a9d96bf1ULL, 0x3ffcee6e9663a8bcULL, 0x401914417f62d284ULL},
      {0xe43448fd651b65f6ULL, 0x69e08c19f80f8b78ULL, 0xddcb465b29749879ULL,
       0x1cb43c009ff9bbb6ULL, 0x3ff25046b037caf3ULL, 0x4012a01aaf1a6200ULL},
      {0xe43448fd651b65f6ULL, 0x220eb1656dc0db80ULL, 0xb4683e9626337b70ULL,
       0x7550973d0f9a8217ULL, 0x3fef962de742427bULL, 0x40105582b77c06c1ULL},
      {0xb64dfaf287140255ULL, 0x544dab522f04c332ULL, 0x75c5c9dfae9f7e4bULL,
       0x9d14766f69e0ed3dULL, 0x3feb405487480322ULL, 0x401010b4dee4dca9ULL},
  };
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 12;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(*scenario, topo, opts);
  GoldilocksOptions gopts;
  gopts.repartition_interval = 4;
  GoldilocksScheduler sched(gopts);
  const obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "goldilocks.partition_cache_hits", obs::MetricKind::kDeterministic);
  const std::uint64_t hits_before = hits.value();
  const auto result = runner.Run(sched);
  EXPECT_EQ(hits.value() - hits_before, 8u);  // the reuse path ran
  ASSERT_EQ(result.epochs.size(), std::size(kExpected));
  ASSERT_EQ(result.state_hashes.size(), std::size(kExpected));
  for (std::size_t e = 0; e < std::size(kExpected); ++e) {
    SCOPED_TRACE(e);
    const auto& h = result.state_hashes[e];
    EXPECT_EQ(h.placement, kExpected[e].placement);
    EXPECT_EQ(h.loads, kExpected[e].loads);
    EXPECT_EQ(h.power, kExpected[e].power);
    EXPECT_EQ(h.rng, kExpected[e].rng);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.epochs[e].mean_tct_ms),
              kExpected[e].mean_tct_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.epochs[e].p99_tct_ms),
              kExpected[e].p99_tct_bits);
  }
}

TEST(Runner, AzureControllerEpochsBitIdentical) {
  // The Azure mix changes its live set every epoch, so every epoch is a
  // fresh repartition of ~150-220 containers through EpochController::Step
  // — dozens of tiny bisections per epoch. The constants pin each epoch's
  // hashes and TCT bit patterns, so any change to which partition a
  // bisection returns shows here.
  struct Expected {
    std::uint64_t placement, loads, power, migration, rng, mean_tct_bits,
        p99_tct_bits;
  };
  constexpr Expected kExpected[] = {
      {0x7599939b6b89afa4ULL, 0x90775c3acfef27aeULL, 0x129157b775088773ULL,
       0x81d23fd7003c2305ULL, 0x3c729417d480f511ULL, 0x3ff117d7149a899bULL,
       0x400cbd8694757345ULL},
      {0xc65a1c25e155a0a4ULL, 0x6ef411866a6d5ac2ULL, 0x371c244b4faa1b49ULL,
       0xbe456578dd486241ULL, 0x24f82d0d3e5287aeULL, 0x3ff545d5b61a4f2bULL,
       0x3fffacd6b8f0ac24ULL},
      {0x43adbdf18087d75dULL, 0xf52174b8402beb4cULL, 0xe8bab4ae39e612e0ULL,
       0xcf841a1460f4f8b4ULL, 0x0dcae14a5c3a561dULL, 0x3fec00d9aad7935eULL,
       0x3fee6708097cec5dULL},
      {0xe5dddc6bb9db2642ULL, 0x014603f8db2aba25ULL, 0xac426b13ade9d9e6ULL,
       0x7eb32147afb32dfcULL, 0x05889a1a3bb8444eULL, 0x3fef5d9c18a7c7ecULL,
       0x3ff13acc14517de3ULL},
      {0x486e8faf3bb749c6ULL, 0xa70c492430608087ULL, 0x087e028cfbbc59a7ULL,
       0xbbe5ff2b9accec0dULL, 0x8b03977e0c7fcaceULL, 0x3ff3e60e5f5055e3ULL,
       0x3ffc7cf20ed140acULL},
      {0x061e7a85d9621afdULL, 0xfa3e29f549d79fabULL, 0x7044a3f8ac81eb7fULL,
       0x6bf4d710a8682d3dULL, 0xc68b1838b9012a66ULL, 0x3ff050c8a16b5256ULL,
       0x3ff3781aeb57017dULL},
      {0x64eb65c160a61399ULL, 0x0e7f2269329da3f0ULL, 0xe923747874f259eeULL,
       0xeb46b83b176e7346ULL, 0xb98400059a84bfc4ULL, 0x3feef732454219e8ULL,
       0x3ff4a0635a31fcf8ULL},
      {0x15e7cb59f984a6ebULL, 0x8bb6312508f5dab1ULL, 0x943c0c07e59ebc0eULL,
       0xb7ecb44673852f92ULL, 0x64d53d0cb9acf5c6ULL, 0x3ff19f8bb3feec23ULL,
       0x3ff32dad2f25a1dbULL},
      {0x2b08f63efadd61ddULL, 0x6625c8a3a5448c3aULL, 0x0bb6ccedf2d52c2cULL,
       0x0b34c844ad4eff04ULL, 0xc91444da3c137eddULL, 0x3ff00ae6ccc86cd1ULL,
       0x3ff3953a9f7257f7ULL},
      {0xd2915335cb7c9ac2ULL, 0x1e136dea6826d8abULL, 0x83ccc41dc9a2f1d2ULL,
       0xe20eb4a424b4115eULL, 0x78e5ec9f9a4927c8ULL, 0x3fef8bc11ac8ff89ULL,
       0x3ff0c74dcaf403a5ULL},
      {0xd2915335cb7c9ac2ULL, 0x8417221b982abaccULL, 0xa7d99e8b6b192d6eULL,
       0x81d23fd7003c2305ULL, 0x78e5ec9f9a4927c8ULL, 0x3fef2112863818e4ULL,
       0x3ff0bc16ea026a55ULL},
      {0x42b3320bbcc11f99ULL, 0x3358e1c764955d4cULL, 0xabd0157ecb803220ULL,
       0x8980c609b56faf35ULL, 0x539bdc387edd997bULL, 0x3fed4dd21aacfe4aULL,
       0x3feedf9713a48578ULL},
      {0x709bed6d8883b7bbULL, 0x8ec5418e80504067ULL, 0xf343bc3cef3cbc76ULL,
       0xf1e833e7bdfea481ULL, 0x1b6ee92ee0756a7dULL, 0x3fee5511a4aea0ddULL,
       0x3ff47a387e206cb8ULL},
      {0x9adf68fe2e3cd448ULL, 0xd7cd87a762eba958ULL, 0xa5db2d42789a3947ULL,
       0xeeef88bee161f3fdULL, 0xd3fca46e8c148d3aULL, 0x3fec58afc83e332dULL,
       0x3fedf03469f2960cULL},
      {0x46c61d2a3bdb9918ULL, 0xf334d558729c832cULL, 0x93deda855202e33eULL,
       0x4683e9b71635ce3dULL, 0xdfa547cd60e12026ULL, 0x3fee21e5edc1d747ULL,
       0x3ff3c8dadb46d755ULL},
      {0x75ff4d8b2f004b2bULL, 0xc92792ec89dea3c7ULL, 0x6ce29ea5186983d2ULL,
       0xd8cbd0a7b104f4fdULL, 0x09998464a23dd6c0ULL, 0x3fecb98a74d1cee4ULL,
       0x3fedd9fb1edb52afULL},
      {0x4c11d0220dcd13cdULL, 0x2b8c8bbded3a582bULL, 0xfacf3b1cb20a8557ULL,
       0x03f4a3ce7b46a340ULL, 0xa5ae8c634fee2ab6ULL, 0x3feb23d287d3e15fULL,
       0x3fedd3d587085ee2ULL},
      {0x693eb2c158fcba0cULL, 0xdaf92e09c32339bfULL, 0x46dae971b5208f37ULL,
       0x9354328c03fca47aULL, 0xf3f9fcfb90dbf354ULL, 0x3fead0ed85536819ULL,
       0x3fed3cc6e7098e84ULL},
      {0xa7402aa25c4a468fULL, 0xbd6f162f075e1161ULL, 0x77fc9d609cccb9d0ULL,
       0xaa4ed263307bdb5aULL, 0x083a25137075404fULL, 0x3feb051b992017fdULL,
       0x3fece5b2ba100fffULL},
      {0xcf1cb689989c3ceaULL, 0xd2f54229562fb218ULL, 0x340fc10678f62978ULL,
       0x28672440f883552cULL, 0x25432d4f60ac2b4eULL, 0x3feafbc48505bee8ULL,
       0x3febc074876e5effULL},
      {0xac75a35a720977cdULL, 0x52474f1f0c8d34b0ULL, 0x20527a30c06018eaULL,
       0x5ee97bdb3b8330a8ULL, 0x12ca7bf2151ea319ULL, 0x3febde4720349277ULL,
       0x3fed9b8818c75830ULL},
      {0xad312ce65bb52cf5ULL, 0xf6c636b660a14eefULL, 0x85ff9b9920551b72ULL,
       0x49cbd0131018ae8aULL, 0x4bf95b1a19122271ULL, 0x3fed1b2a43cab241ULL,
       0x3ff3642c4cf5cbb7ULL},
      {0xb1ef6611ad451dc1ULL, 0x021fd36a71f16c3eULL, 0xc5b9c0e08557b3e3ULL,
       0x9517bc6979c1d231ULL, 0x69f0fcbe51ce259dULL, 0x3feca49b8d8aa77aULL,
       0x3ff178a12121f313ULL},
      {0xd1769e1dd63add96ULL, 0x90ad9e49c9c069e6ULL, 0xb7988ac0751ac2f3ULL,
       0x4c56bde3bdfd96aaULL, 0xe6c86836071735d7ULL, 0x3feb8945d84d8b32ULL,
       0x3fee6a0cc1dcbb0cULL},
  };
  AzureScenarioOptions sopts;
  sopts.num_epochs = 24;
  const auto scenario = MakeAzureMixScenario(sopts);
  const Topology topo = Topology::Testbed16();
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(*scenario, topo, opts);
  GoldilocksScheduler sched;
  const obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "goldilocks.partition_cache_hits", obs::MetricKind::kDeterministic);
  const std::uint64_t hits_before = hits.value();
  const auto result = runner.Run(sched);
  EXPECT_EQ(hits.value(), hits_before);  // every epoch repartitioned
  ASSERT_EQ(result.epochs.size(), std::size(kExpected));
  ASSERT_EQ(result.state_hashes.size(), std::size(kExpected));
  for (std::size_t e = 0; e < std::size(kExpected); ++e) {
    SCOPED_TRACE(e);
    const auto& h = result.state_hashes[e];
    EXPECT_EQ(h.placement, kExpected[e].placement);
    EXPECT_EQ(h.loads, kExpected[e].loads);
    EXPECT_EQ(h.power, kExpected[e].power);
    EXPECT_EQ(h.migration, kExpected[e].migration);
    EXPECT_EQ(h.rng, kExpected[e].rng);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.epochs[e].mean_tct_ms),
              kExpected[e].mean_tct_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.epochs[e].p99_tct_ms),
              kExpected[e].p99_tct_bits);
  }
}

TEST(Runner, RepairEpochsBitIdentical) {
  // Incremental repair every 4th epoch: twitter repairs a grouping it
  // reused in between, and azure, whose live set changes almost every
  // epoch, repairs nearly every epoch. The constants pin each epoch's
  // hashes and TCT bit patterns, so the per-grouping caches must be rebuilt
  // exactly on the repair path too.
  struct Expected {
    std::uint64_t placement, loads, power, rng, mean_tct_bits, p99_tct_bits;
  };
  constexpr Expected kTwitter[] = {
      {0x8eab0325a7f45535ULL, 0xea96d0ff5a7ebd9cULL, 0x5aea3cbc87771b23ULL,
       0x6b0b03a1420b7281ULL, 0x3fe9b426b295d377ULL, 0x3fe9c2a742a3d440ULL},
      {0x8eab0325a7f45535ULL, 0xf94c324bd3b706a3ULL, 0xfe07703f5870933fULL,
       0xd9f439e5a1ebc000ULL, 0x3feb390fc14d08ebULL, 0x3feba35391980fb0ULL},
      {0x8eab0325a7f45535ULL, 0x4be2cad74e30d9ffULL, 0xa790ca9c5b41a4f7ULL,
       0x481ecbf66f935483ULL, 0x3ff18eea5e9240c9ULL, 0x3ff3ae1843b2da79ULL},
      {0x8eab0325a7f45535ULL, 0xeb391d1d4a1db9c0ULL, 0xb56f60c45a03a702ULL,
       0x84313e1123b48702ULL, 0x4000e389c4fdc79cULL, 0x4004a421e5c06f12ULL},
      {0x8eab0325a7f45535ULL, 0xc29f4fc126f09446ULL, 0x6b4b6d15fe7e77acULL,
       0x6b0b03a1420b7281ULL, 0x401e1100fa364110ULL, 0x4023333333333334ULL},
      {0x125286ddb76a6cf4ULL, 0x000f4baccf1b99a7ULL, 0xcf8eec83f2448ebcULL,
       0xb5a8b9df31161344ULL, 0x40086a56ebc189b2ULL, 0x4028680fc5f6f46aULL},
      {0xe557d6be03a0beb0ULL, 0x3b8ccb9631db90bdULL, 0x7ca66af810315a27ULL,
       0x0fad1778648de226ULL, 0x4003c12f70255386ULL, 0x40195b8b8407d0ecULL},
      {0xaeb8bdd6ad622676ULL, 0xb883f074573d4c14ULL, 0x5b07604f12510f84ULL,
       0x354a1170ab06c391ULL, 0x400a4d2c53c2b0fcULL, 0x402a0c744b9f82c3ULL},
      {0x25e4c23185135b77ULL, 0x6ca04a2e8ccb1303ULL, 0x9ca4d43f9e321610ULL,
       0x740deaf75f106610ULL, 0x400bc30b2d9b3078ULL, 0x4023333333333334ULL},
      {0xa9190a89dcdceff5ULL, 0x98ed57e1c3f71a85ULL, 0x95f5301bdc276f8dULL,
       0x6c010a7ae8a1b293ULL, 0x3ff4f56063d318e4ULL, 0x4010b70104e71afaULL},
      {0xa9190a89dcdceff5ULL, 0x565dc62d06184664ULL, 0xa3b07de00908d6a4ULL,
       0x4692f798d745c012ULL, 0x3fec13509d8f3369ULL, 0x4010228d5639c32bULL},
      {0xa9190a89dcdceff5ULL, 0x247072e31c21f349ULL, 0x206082531831fb30ULL,
       0x354a1170ab06c391ULL, 0x3febc44f259668e6ULL, 0x40100e4e5ce2f5f5ULL},
  };
  constexpr Expected kAzure[] = {
      {0x9fe4c077ca76388cULL, 0x59adef2cb18381ddULL, 0xab4f2771efaf65aaULL,
       0xf9430b9a7e04d22bULL, 0x3ff41a48e829ad46ULL, 0x3ffd913aafd30ff0ULL},
      {0x38f9711be2f98470ULL, 0xca6d7820864c02abULL, 0x5c1f8cef170811fdULL,
       0x57982d65106228a5ULL, 0x3ff37838dd306ca1ULL, 0x3ffbf8f0e7e12785ULL},
      {0xb6fbbcd84053a366ULL, 0x450eee7c0b0a5630ULL, 0x992f6f7212e8499aULL,
       0x85082e2256ea4bdfULL, 0x3ff4079fa83260aaULL, 0x3ffeb64e4e96b207ULL},
      {0x38f9711be2f98470ULL, 0x778f92aef86e10b1ULL, 0x64f2a148c3ae99feULL,
       0x57982d65106228a5ULL, 0x3ff8ba7ed4c366c7ULL, 0x400459676a100c53ULL},
      {0x71f590e817f92b6aULL, 0xe402fd8150d1bbccULL, 0xc4a0f48bd4c3fa53ULL,
       0x788ffbed7cf98989ULL, 0x3fffc9fa4a59df2cULL, 0x400e4f9a35e202f0ULL},
      {0x0982593c585a9525ULL, 0xc7adb0c9e8da77d6ULL, 0xc95e8020501f7773ULL,
       0x5f9b47b231a3483fULL, 0x3ff9c533df1d1d27ULL, 0x400676e63d3706faULL},
      {0x1d720c2933a0511dULL, 0xd9aeec5fe32184f7ULL, 0xbe1366ec868773f8ULL,
       0xbaad66995fc27427ULL, 0x400923cef04120d5ULL, 0x40222b113e008884ULL},
      {0x1d720c2933a0511dULL, 0x124f8c284a795f23ULL, 0x484bef1c4f4b856cULL,
       0x82dd6f4964a568e6ULL, 0x3ff88036d4858facULL, 0x4008fabfab16050fULL},
      {0x1da38a2af145481cULL, 0xf581b2ec776318e2ULL, 0x43f3375b0b6a6653ULL,
       0x81eff25bfd171627ULL, 0x3ffe38b4808f2445ULL, 0x400fc66dcfacb35aULL},
      {0xd879dce55ad3d1c4ULL, 0x3f7fd38e42e94f37ULL, 0xc6fe4539459850ccULL,
       0x56ae2b119065bcb0ULL, 0x3ff5cbc087bbb421ULL, 0x4002cef48c2fe7e3ULL},
      {0x3063f5cfc205e9d4ULL, 0xa48c024fedca8cceULL, 0x5c30a9b9fca37b06ULL,
       0xbaa432bd16b7802fULL, 0x3ff4245954614552ULL, 0x400053c5180fe85fULL},
      {0x1d720c2933a0511dULL, 0x3744726a47f42059ULL, 0xca5756ed5e94e9b2ULL,
       0xbaad66995fc27427ULL, 0x3ff15e162bc7847eULL, 0x3ffa7b508cf2337cULL},
  };
  struct World {
    std::unique_ptr<Scenario> scenario;
    std::span<const Expected> expected;
    std::uint64_t cache_hits;
  };
  TwitterScenarioOptions twitter;
  twitter.num_epochs = 12;
  AzureScenarioOptions azure;
  azure.num_epochs = 12;
  World worlds[] = {
      {MakeTwitterCachingScenario(twitter), kTwitter, 8},
      {MakeAzureMixScenario(azure), kAzure, 1},
  };
  const Topology topo = Topology::Testbed16();
  RunnerOptions opts;
  opts.record_state_hashes = true;
  for (const auto& world : worlds) {
    SCOPED_TRACE(world.scenario->name());
    const ExperimentRunner runner(*world.scenario, topo, opts);
    GoldilocksOptions gopts;
    gopts.repartition_interval = 4;
    gopts.incremental_repartition = true;
    GoldilocksScheduler sched(gopts);
    const obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
        "goldilocks.partition_cache_hits", obs::MetricKind::kDeterministic);
    const std::uint64_t hits_before = hits.value();
    const auto result = runner.Run(sched);
    EXPECT_EQ(hits.value() - hits_before, world.cache_hits);
    ASSERT_EQ(result.epochs.size(), world.expected.size());
    ASSERT_EQ(result.state_hashes.size(), world.expected.size());
    for (std::size_t e = 0; e < world.expected.size(); ++e) {
      SCOPED_TRACE(e);
      const auto& h = result.state_hashes[e];
      const Expected& want = world.expected[e];
      EXPECT_EQ(h.placement, want.placement);
      EXPECT_EQ(h.loads, want.loads);
      EXPECT_EQ(h.power, want.power);
      EXPECT_EQ(h.rng, want.rng);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.epochs[e].mean_tct_ms),
                want.mean_tct_bits);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.epochs[e].p99_tct_ms),
                want.p99_tct_bits);
    }
  }
}

// Records what Place saw and what it returned, epoch by epoch.
class RecordingScheduler final : public Scheduler {
 public:
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  Placement Place(const SchedulerInput& input) override {
    seen.emplace_back(input.demands.begin(), input.demands.end());
    placements.push_back(inner_.Place(input));
    return placements.back();
  }

  std::vector<std::vector<Resource>> seen;
  std::vector<Placement> placements;

 private:
  GoldilocksScheduler inner_;
};

TEST(Runner, EstimatedDemandsReachPlaceTrueDemandsReachHashes) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 5;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  RunnerOptions opts;
  opts.use_estimated_demands = true;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(*scenario, topo, opts);
  RecordingScheduler sched;
  const auto result = runner.Run(sched);
  ASSERT_EQ(sched.seen.size(), 5u);
  ASSERT_EQ(result.state_hashes.size(), 5u);

  // HashLoads compares demand vectors bit for bit.
  std::vector<Resource> reservations;
  for (const auto& c : scenario->workload().containers) {
    reservations.push_back(GetAppProfile(c.app).reserved);
  }
  DemandEstimator estimator(reservations.size(), opts.estimator);
  for (int e = 0; e < 5; ++e) {
    SCOPED_TRACE(e);
    const auto ei = static_cast<std::size_t>(e);
    const auto demands = scenario->DemandsAt(e);
    const auto believed =
        e == 0 ? reservations : estimator.Predict(reservations);
    EXPECT_EQ(HashLoads(sched.seen[ei]), HashLoads(believed));
    EXPECT_NE(HashLoads(sched.seen[ei]), HashLoads(demands));
    estimator.Observe(demands);
    const Placement& placement = sched.placements[ei];
    EXPECT_EQ(result.state_hashes[ei].placement,
              HashAssignment(placement.server_of));
    EXPECT_EQ(result.state_hashes[ei].loads,
              HashLoads(ServerLoads(placement, demands, topo.num_servers())));
  }
}

TEST(Runner, IdleServersDrawNothingWhenGated) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 2;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();

  RunnerOptions on;
  RunnerOptions off;
  off.power_off_idle_servers = false;
  ExperimentRunner gated(*scenario, topo, on);
  ExperimentRunner ungated(*scenario, topo, off);
  GoldilocksScheduler s1, s2;
  const double gated_watts = gated.Run(s1).Average().server_watts;
  const double ungated_watts = ungated.Run(s2).Average().server_watts;
  EXPECT_LT(gated_watts, ungated_watts);
}

}  // namespace
}  // namespace gl
