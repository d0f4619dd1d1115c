// Tests for the determinism subsystem (DESIGN.md §8): the FNV state hasher,
// the stable-iteration adapters, the shared epsilon helpers, and the golden
// seed-replay guarantee — every scheduler, run twice from the same seed, must
// produce bit-identical per-epoch state-hash streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/resource.h"
#include "common/rng.h"
#include "common/stable_map.h"
#include "common/state_hash.h"
#include "sim/names.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

// --- StateHasher --------------------------------------------------------------

TEST(StateHasher, EmptyDigestIsFnvOffsetBasis) {
  StateHasher h;
  EXPECT_EQ(h.digest(), 0xcbf29ce484222325ULL);
}

TEST(StateHasher, MatchesKnownFnv1aVector) {
  // FNV-1a of the byte 0x61 ('a'), fed through MixU64's little-endian byte
  // stream: only the low byte is 'a', the remaining seven are zero.
  StateHasher h;
  h.MixU64(0x61);
  std::uint64_t expect = 0xcbf29ce484222325ULL;
  std::uint64_t v = 0x61;
  for (int i = 0; i < 8; ++i) {
    expect = (expect ^ (v & 0xff)) * 0x100000001b3ULL;
    v >>= 8;
  }
  EXPECT_EQ(h.digest(), expect);
}

TEST(StateHasher, OrderSensitive) {
  StateHasher ab, ba;
  ab.MixU64(1);
  ab.MixU64(2);
  ba.MixU64(2);
  ba.MixU64(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

TEST(StateHasher, NegativeZeroCanonicalized) {
  StateHasher pos, neg;
  pos.MixDouble(0.0);
  neg.MixDouble(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
  StateHasher one;
  one.MixDouble(1.0);
  EXPECT_NE(pos.digest(), one.digest());
}

TEST(StateHasher, PlacementHashSensitivity) {
  const std::vector<ServerId> a = {ServerId(0), ServerId(1), ServerId(2)};
  std::vector<ServerId> b = a;
  EXPECT_EQ(HashAssignment(a), HashAssignment(b));
  b[1] = ServerId(7);
  EXPECT_NE(HashAssignment(a), HashAssignment(b));
  // A container parked on an invalid server still contributes.
  std::vector<ServerId> c = a;
  c[2] = ServerId();
  EXPECT_NE(HashAssignment(a), HashAssignment(c));
}

TEST(StateHasher, RngStateHashTracksDraws) {
  Rng a(42), b(42);
  EXPECT_EQ(a.StateHash(), b.StateHash());
  (void)a.NextDouble();
  EXPECT_NE(a.StateHash(), b.StateHash());
  (void)b.NextDouble();
  EXPECT_EQ(a.StateHash(), b.StateHash());
}

TEST(StateHasher, FirstDivergentSubsystemOrdering) {
  EpochStateHash a;
  a.epoch = 3;
  a.placement = 1;
  a.loads = 2;
  a.power = 3;
  a.migration = 4;
  a.rng = 5;
  EpochStateHash b = a;
  EXPECT_EQ(FirstDivergentSubsystem(a, b), nullptr);
  b.rng = 99;
  EXPECT_STREQ(FirstDivergentSubsystem(a, b), "rng");
  b.placement = 98;  // placement outranks rng in the report
  EXPECT_STREQ(FirstDivergentSubsystem(a, b), "placement");
  b = a;
  b.epoch = 4;
  EXPECT_STREQ(FirstDivergentSubsystem(a, b), "epoch");
}

// --- stable iteration adapters ------------------------------------------------

TEST(StableMap, SortedItemsYieldsKeyOrder) {
  std::unordered_map<int, double> m = {{7, 0.7}, {1, 0.1}, {3, 0.3}};
  const auto items = SortedItems(m);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 1);
  EXPECT_EQ(items[1].first, 3);
  EXPECT_EQ(items[2].first, 7);
  EXPECT_DOUBLE_EQ(items[2].second, 0.7);
}

TEST(StableMap, SortedKeysWorksForSetsAndMaps) {
  std::unordered_set<int> s = {5, 2, 9};
  EXPECT_EQ(SortedKeys(s), (std::vector<int>{2, 5, 9}));
  std::unordered_map<int, int> m = {{4, 0}, {0, 0}};
  EXPECT_EQ(SortedKeys(m), (std::vector<int>{0, 4}));
}

TEST(StableMap, ValueOrLooksUpSortedItems) {
  std::unordered_map<int, double> m = {{2, 2.5}, {8, 8.5}};
  const auto items = SortedItems(m);
  EXPECT_DOUBLE_EQ(ValueOr(items, 2, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(ValueOr(items, 5, -1.0), -1.0);
}

// --- shared epsilon helpers ---------------------------------------------------

TEST(ResourceEps, WithinCapToleratesAccumulationNoise) {
  EXPECT_TRUE(WithinCap(1.0, 1.0));
  EXPECT_TRUE(WithinCap(1.0 + 0.5 * kResourceEps, 1.0));
  EXPECT_FALSE(WithinCap(1.01, 1.0));
  // FitsIn routes through the shared helper.
  const Resource cap{.cpu = 100, .mem_gb = 10, .net_mbps = 1000};
  Resource use = cap;
  use.cpu += 20 * kResourceEps;  // below the relative tolerance at cpu=100
  EXPECT_TRUE(use.FitsIn(cap));
  use.cpu = 101;
  EXPECT_FALSE(use.FitsIn(cap));
}

TEST(ResourceEps, ApproxEqIsSymmetricAndScaled) {
  EXPECT_TRUE(ApproxEq(0.0, 0.0));
  EXPECT_TRUE(ApproxEq(1e9, 1e9 * (1.0 + 0.5 * kResourceEps)));
  EXPECT_FALSE(ApproxEq(1.0, 1.1));
  EXPECT_TRUE(ApproxEq(-3.0, -3.0));
}

// --- golden seed replay -------------------------------------------------------

std::vector<EpochStateHash> RunHashed(const std::string& name,
                                      const Scenario& scenario,
                                      const Topology& topo) {
  auto scheduler = MakeNamedScheduler(name, 0.70, 0xfeed);
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(scenario, topo, opts);
  return runner.Run(*scheduler).state_hashes;
}

TEST(SeedReplay, AllSchedulersBitIdenticalAcrossRuns) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 8;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  for (const auto& name : NamedSchedulers()) {
    SCOPED_TRACE(name);
    const auto first = RunHashed(name, *scenario, topo);
    const auto second = RunHashed(name, *scenario, topo);
    ASSERT_EQ(first.size(), second.size());
    ASSERT_EQ(first.size(), 8u);
    for (std::size_t e = 0; e < first.size(); ++e) {
      EXPECT_EQ(FirstDivergentSubsystem(first[e], second[e]), nullptr)
          << "epoch " << e << ": " << first[e].ToString() << " vs "
          << second[e].ToString();
    }
    // The stream is not degenerate: successive epochs hash differently.
    EXPECT_NE(first[0].Combined(), first[1].Combined());
  }
}

TEST(SeedReplay, DifferentSeedsDivergeForRandomScheduler) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 4;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(*scenario, topo, opts);
  auto a = MakeNamedScheduler("random", 0.70, 1);
  auto b = MakeNamedScheduler("random", 0.70, 2);
  const auto ha = runner.Run(*a).state_hashes;
  const auto hb = runner.Run(*b).state_hashes;
  ASSERT_EQ(ha.size(), hb.size());
  bool any_diff = false;
  for (std::size_t e = 0; e < ha.size(); ++e) {
    any_diff = any_diff || FirstDivergentSubsystem(ha[e], hb[e]) != nullptr;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SeedReplay, HashesOffByDefault) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 2;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const ExperimentRunner runner(*scenario, topo, RunnerOptions{});
  auto scheduler = MakeNamedScheduler("mpp");
  EXPECT_TRUE(runner.Run(*scheduler).state_hashes.empty());
}

}  // namespace
}  // namespace gl
