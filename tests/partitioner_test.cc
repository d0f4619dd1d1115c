#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/state_hash.h"
#include "core/graph_builder.h"
#include "graph/fm.h"
#include "graph/partitioner.h"
#include "graph/refine.h"
#include "graph/scratch.h"
#include "obs/metrics.h"
#include "workload/msr_trace.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

// Two dense cliques joined by one weak edge — the canonical min-cut case.
CsrGraph TwoCliques(int clique_size, double intra_w = 10.0,
                    double bridge_w = 1.0) {
  CsrGraphBuilder builder;
  for (int i = 0; i < 2 * clique_size; ++i) {
    builder.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int c = 0; c < 2; ++c) {
    const int base = c * clique_size;
    for (int i = 0; i < clique_size; ++i) {
      for (int j = i + 1; j < clique_size; ++j) {
        builder.AddEdge(base + i, base + j, intra_w);
      }
    }
  }
  builder.AddEdge(0, clique_size, bridge_w);
  return builder.Build();
}

// Ring of `n` vertices with unit weights.
CsrGraph Ring(int n) {
  CsrGraphBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 0; i < n; ++i) builder.AddEdge(i, (i + 1) % n, 1.0);
  return builder.Build();
}

CsrGraph RandomGraph(int n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  CsrGraphBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.AddVertex(Resource{.cpu = rng.Uniform(1, 20), .mem_gb = 1,
                               .net_mbps = 1},
                      rng.Uniform(0.5, 2.0));
  }
  const int edges = static_cast<int>(n * degree / 2);
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a != b) builder.AddEdge(a, b, rng.Uniform(0.5, 5.0));
  }
  return builder.Build();
}

[[maybe_unused]] double BalanceRatio(const Bisection& b, const CsrGraph& g) {
  const double total = g.total_balance_weight();
  return std::max(b.side_weight[0], b.side_weight[1]) / (total / 2.0);
}

// --- Bisect --------------------------------------------------------------------

TEST(Bisect, FindsTheObviousCut) {
  const CsrGraph g = TwoCliques(8);
  const auto b = Bisect(g, {});
  EXPECT_DOUBLE_EQ(b.cut_weight, 1.0);  // only the bridge crosses
  EXPECT_TRUE(b.balanced);
  // Each clique must be wholly on one side.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(b.side[i], b.side[0]);
  for (int i = 9; i < 16; ++i) EXPECT_EQ(b.side[i], b.side[8]);
  EXPECT_NE(b.side[0], b.side[8]);
}

TEST(Bisect, RingCutsExactlyTwoEdges) {
  const CsrGraph g = Ring(32);
  const auto b = Bisect(g, {});
  EXPECT_DOUBLE_EQ(b.cut_weight, 2.0);
  EXPECT_TRUE(b.balanced);
}

TEST(Bisect, SingleVertex) {
  CsrGraphBuilder builder;
  builder.AddVertex({}, 1.0);
  const CsrGraph g = builder.Build();
  const auto b = Bisect(g, {});
  EXPECT_EQ(b.side.size(), 1u);
  EXPECT_DOUBLE_EQ(b.cut_weight, 0.0);
}

TEST(Bisect, EmptyGraph) {
  const CsrGraph g = CsrGraphBuilder().Build();
  const auto b = Bisect(g, {});
  EXPECT_TRUE(b.side.empty());
  EXPECT_TRUE(b.balanced);
}

TEST(Bisect, TwoVertices) {
  CsrGraphBuilder builder;
  builder.AddVertex({}, 1.0);
  builder.AddVertex({}, 1.0);
  builder.AddEdge(0, 1, 3.0);
  const CsrGraph g = builder.Build();
  const auto b = Bisect(g, {});
  EXPECT_NE(b.side[0], b.side[1]);
  EXPECT_DOUBLE_EQ(b.cut_weight, 3.0);
}

TEST(Bisect, CutMatchesReportedWeight) {
  const CsrGraph g = RandomGraph(200, 6.0, 99);
  const auto b = Bisect(g, {});
  EXPECT_NEAR(g.CutWeight(b.side), b.cut_weight, 1e-9);
}

TEST(Bisect, DeterministicGivenSeed) {
  const CsrGraph g = RandomGraph(150, 5.0, 7);
  PartitionOptions opts;
  opts.seed = 42;
  const auto b1 = Bisect(g, opts);
  const auto b2 = Bisect(g, opts);
  EXPECT_EQ(b1.side, b2.side);
  EXPECT_DOUBLE_EQ(b1.cut_weight, b2.cut_weight);
}

TEST(Bisect, AsymmetricTargetFraction) {
  const CsrGraph g = RandomGraph(300, 4.0, 3);
  PartitionOptions opts;
  opts.balance_tolerance = 0.08;
  const auto b = Bisect(g, opts, 0.25);
  const double total = g.total_balance_weight();
  EXPECT_NEAR(b.side_weight[0] / total, 0.25, 0.08);
}

TEST(Bisect, NegativeEdgeSeparatesReplicas) {
  // Two hub-and-spoke stars whose hubs are replicas (negative edge).
  CsrGraphBuilder builder;
  for (int i = 0; i < 12; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 1; i < 6; ++i) builder.AddEdge(0, i, 5.0);
  for (int i = 7; i < 12; ++i) builder.AddEdge(6, i, 5.0);
  builder.AddEdge(0, 6, -1000.0);
  const CsrGraph g = builder.Build();
  const auto b = Bisect(g, {});
  EXPECT_NE(b.side[0], b.side[6]);
}

TEST(Bisect, BetterThanRandomOnStructuredGraph) {
  const CsrGraph g = TwoCliques(20, 8.0, 2.0);
  const auto b = Bisect(g, {});
  // A random balanced cut of two 20-cliques crosses ~half the intra edges;
  // the partitioner must find the 2.0 bridge.
  EXPECT_LE(b.cut_weight, 2.0 + 1e-9);
}

// Parameterized balance sweep: the bisection respects the tolerance across
// graph shapes and sizes.
class BisectBalanceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BisectBalanceTest, WithinTolerance) {
  const auto [n, tol] = GetParam();
  const CsrGraph g =
      RandomGraph(n, 6.0, static_cast<std::uint64_t>(n) * 31 + 1);
  PartitionOptions opts;
  opts.balance_tolerance = tol;
  const auto b = Bisect(g, opts);
  // Tolerance plus one max-weight vertex of slack (vertices are atomic).
  double max_bw = 0.0;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    max_bw = std::max(max_bw, g.balance_weight(v));
  }
  const double limit =
      (1.0 + tol) * g.total_balance_weight() / 2.0 + max_bw;
  EXPECT_LE(b.side_weight[0], limit);
  EXPECT_LE(b.side_weight[1], limit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BisectBalanceTest,
    ::testing::Combine(::testing::Values(50, 200, 1000),
                       ::testing::Values(0.05, 0.10, 0.20)));

// --- KWayPartition ---------------------------------------------------------------

TEST(KWay, ProducesExactlyKGroups) {
  const CsrGraph g = RandomGraph(120, 5.0, 11);
  for (const int k : {2, 3, 5, 8}) {
    const auto r = KWayPartition(g, k, {});
    std::set<int> groups(r.group_of.begin(), r.group_of.end());
    EXPECT_EQ(static_cast<int>(groups.size()), k) << "k=" << k;
    for (const int gi : r.group_of) {
      EXPECT_GE(gi, 0);
      EXPECT_LT(gi, k);
    }
  }
}

TEST(KWay, CutMatchesAssignment) {
  const CsrGraph g = RandomGraph(150, 6.0, 13);
  const auto r = KWayPartition(g, 4, {});
  EXPECT_NEAR(g.CutWeightKWay(r.group_of), r.cut_weight, 1e-9);
}

TEST(KWay, KEqualsOneIsWholeGraph) {
  const CsrGraph g = Ring(10);
  const auto r = KWayPartition(g, 1, {});
  for (const int gi : r.group_of) EXPECT_EQ(gi, 0);
  EXPECT_DOUBLE_EQ(r.cut_weight, 0.0);
}

TEST(KWay, Fig7SnapshotIsPinned) {
  // bench_fig7_partitioning's Fig 7(b) graph: the induced subgraph of the
  // first 100 vertices of the MSR search trace, split 5 ways. Group sizes,
  // assignment and cut bits are pinned with the k-way pass on (what the
  // bench prints) and off (the cut is the recursion's own preorder fold).
  Rng rng(19);
  MsrTraceOptions mopts;
  mopts.num_vertices = 1000;
  const auto trace = GenerateMsrSearchTrace(mopts, rng);
  CsrGraphBuilder builder;
  for (int v = 0; v < 100; ++v) {
    builder.AddVertex(
        trace.workload.containers[static_cast<std::size_t>(v)].demand, 1.0);
  }
  for (const auto& e : trace.workload.edges) {
    if (e.a.value() < 100 && e.b.value() < 100) {
      builder.AddEdge(e.a.value(), e.b.value(), e.flows);
    }
  }
  const CsrGraph g = builder.Build();
  struct Pin {
    int kway_refine_passes;
    std::vector<int> sizes;
    std::uint64_t group_of_hash;
    std::uint64_t cut_bits;
  };
  const Pin pins[] = {
      {2, {23, 26, 18, 13, 20}, 0xd16e4ca90ad28106, 0x40b1d90000000000},
      {0, {22, 26, 18, 16, 18}, 0x0038957fc796f845, 0x40b20f0000000000},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.kway_refine_passes);
    PartitionOptions opts;
    opts.kway_refine_passes = pin.kway_refine_passes;
    const auto r = KWayPartition(g, 5, opts);
    std::vector<int> sizes(5, 0);
    StateHasher h;
    for (const int gi : r.group_of) {
      ++sizes[static_cast<std::size_t>(gi)];
      h.MixI32(gi);
    }
    EXPECT_EQ(sizes, pin.sizes);
    EXPECT_EQ(h.digest(), pin.group_of_hash);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cut_weight), pin.cut_bits)
        << r.cut_weight;
  }
}

TEST(KWay, BalancedAcrossGroups) {
  const CsrGraph g = RandomGraph(400, 5.0, 17);
  const int k = 5;
  const auto r = KWayPartition(g, k, {});
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    weight[static_cast<std::size_t>(
        r.group_of[static_cast<std::size_t>(v)])] += g.balance_weight(v);
  }
  const double target = g.total_balance_weight() / k;
  for (const double w : weight) {
    EXPECT_LT(w, target * 1.6);
    EXPECT_GT(w, target * 0.4);
  }
}

TEST(KWayRefine, ImprovesASwappedAssignment) {
  // Two cliques assigned correctly except two swapped vertices: refinement
  // must send them home and report the gain.
  const CsrGraph g = TwoCliques(8);
  std::vector<int> group(16);
  for (int v = 0; v < 16; ++v) group[static_cast<std::size_t>(v)] = v / 8;
  std::swap(group[1], group[9]);
  const double before = g.CutWeightKWay(group);
  const double gain = RefineKWay(g, group, 2, {});
  const double after = g.CutWeightKWay(group);
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(after, before);
  EXPECT_EQ(group[1], group[0]);
  EXPECT_EQ(group[9], group[8]);
}

TEST(KWayRefine, RespectsBalanceCap) {
  // A star: every leaf wants to join the hub's group, but balance forbids
  // collapsing everything into one side.
  CsrGraphBuilder builder;
  for (int i = 0; i < 16; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 1; i < 16; ++i) builder.AddEdge(0, i, 5.0);
  const CsrGraph g = builder.Build();
  std::vector<int> group(16);
  for (int v = 0; v < 16; ++v) group[static_cast<std::size_t>(v)] = v % 2;
  PartitionOptions opts;
  opts.balance_tolerance = 0.10;
  RefineKWay(g, group, 2, opts);
  int side0 = 0;
  for (const int gi : group) side0 += gi == 0;
  EXPECT_GE(side0, 7);
  EXPECT_LE(side0, 9);
}

TEST(KWayRefine, NoopOnOptimal) {
  const CsrGraph g = TwoCliques(8);
  std::vector<int> group(16);
  for (int v = 0; v < 16; ++v) group[static_cast<std::size_t>(v)] = v / 8;
  EXPECT_DOUBLE_EQ(RefineKWay(g, group, 2, {}), 0.0);
}

TEST(KWayRefine, NeverEmptiesAGroup) {
  const CsrGraph g = Ring(12);
  std::vector<int> group(12, 0);
  group[5] = 1;  // a lone vertex that refinement would love to absorb
  RefineKWay(g, group, 2, {});
  int side1 = 0;
  for (const int gi : group) side1 += gi == 1;
  EXPECT_GE(side1, 1);
}

TEST(KWayRefine, KWayPartitionUsesIt) {
  // With refinement on, the k-way cut must be no worse than without.
  const CsrGraph g = RandomGraph(300, 6.0, 77);
  PartitionOptions with;
  PartitionOptions without;
  without.kway_refine_passes = 0;
  const auto a = KWayPartition(g, 6, with);
  const auto b = KWayPartition(g, 6, without);
  EXPECT_LE(a.cut_weight, b.cut_weight + 1e-9);
}

// --- RecursivePartition -----------------------------------------------------------

// Per-group demand and size, recomputed from the vertex assignment.
std::vector<Resource> GroupDemands(const CsrGraph& g,
                                   const RecursivePartitionResult& r) {
  std::vector<Resource> demand(static_cast<std::size_t>(r.num_groups));
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const int gi = r.group_of[static_cast<std::size_t>(v)];
    demand[static_cast<std::size_t>(gi)] += g.demand(v);
  }
  return demand;
}

std::vector<int> GroupSizes(const RecursivePartitionResult& r) {
  std::vector<int> size(static_cast<std::size_t>(r.num_groups), 0);
  for (const int gi : r.group_of) ++size[static_cast<std::size_t>(gi)];
  return size;
}

TEST(RecursivePartition, StopsWhenEverythingFits) {
  const CsrGraph g = Ring(16);
  const auto r = RecursivePartition(
      g, [](const Resource&) { return true; }, {});
  EXPECT_EQ(r.num_groups, 1);
  EXPECT_EQ(r.group_of, std::vector<int>(16, 0));
}

TEST(RecursivePartition, SplitsUntilFit) {
  const CsrGraph g = Ring(64);  // total cpu 64
  const auto r = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 10.0; }, {});
  EXPECT_GE(r.num_groups, 7);  // 64/10 → at least 7 groups
  // Every group fits, so none is an oversized singleton either.
  for (const Resource& d : GroupDemands(g, r)) {
    EXPECT_LE(d.cpu, 10.0 + 1e-9);
  }
}

TEST(RecursivePartition, EveryVertexAssigned) {
  const CsrGraph g = RandomGraph(300, 5.0, 23);
  const auto r = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 100.0; }, {});
  for (const int gi : r.group_of) {
    EXPECT_GE(gi, 0);
    EXPECT_LT(gi, r.num_groups);
  }
  // No group is empty, and group sizes sum to the vertex count.
  int total = 0;
  for (const int size : GroupSizes(r)) {
    EXPECT_GT(size, 0);
    total += size;
  }
  EXPECT_EQ(total, g.num_vertices());
}

TEST(RecursivePartition, OversizedSingletonFlagged) {
  CsrGraphBuilder builder;
  builder.AddVertex(Resource{.cpu = 1000, .mem_gb = 1, .net_mbps = 1}, 1.0);
  builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  builder.AddEdge(0, 1, 1.0);
  const CsrGraph g = builder.Build();
  const auto r = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 10.0; }, {});
  // The container larger than any server stops splitting alone.
  ASSERT_EQ(r.num_groups, 2);
  EXPECT_EQ(GroupSizes(r)[static_cast<std::size_t>(r.group_of[0])], 1);
  EXPECT_EQ(GroupDemands(g, r)[static_cast<std::size_t>(r.group_of[0])].cpu,
            1000.0);
}

TEST(RecursivePartition, PathsEncodeHierarchy) {
  const CsrGraph g = Ring(32);
  const auto r = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 8.0; }, {});
  EXPECT_EQ(static_cast<int>(r.group_path.size()), r.num_groups);
  // Paths must be distinct and none may be a prefix of another (they are
  // leaves of the recursion tree).
  for (int i = 0; i < r.num_groups; ++i) {
    for (int j = i + 1; j < r.num_groups; ++j) {
      const auto& a = r.group_path[static_cast<std::size_t>(i)];
      const auto& b = r.group_path[static_cast<std::size_t>(j)];
      EXPECT_NE(a, b);
      EXPECT_FALSE(a.size() < b.size() && b.compare(0, a.size(), a) == 0);
      EXPECT_FALSE(b.size() < a.size() && a.compare(0, b.size(), b) == 0);
    }
  }
}

TEST(RecursivePartition, LocalityOrderSortsByPath) {
  const CsrGraph g = Ring(32);
  const auto r = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 8.0; }, {});
  ASSERT_EQ(static_cast<int>(r.group_path.size()), r.num_groups);
  ASSERT_GT(r.num_groups, 1);
  for (std::size_t i = 1; i < r.group_path.size(); ++i) {
    EXPECT_LT(r.group_path[i - 1], r.group_path[i]);
  }
}

TEST(RecursivePartition, CliquesStayTogether) {
  // 4 cliques of 8 (cpu 80 each), fit threshold 100: each clique is one
  // group; the weak bridges are the only cut edges.
  CsrGraphBuilder builder;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 8; ++i) {
      builder.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
    }
    const int base = c * 8;
    for (int i = 0; i < 8; ++i) {
      for (int j = i + 1; j < 8; ++j) {
        builder.AddEdge(base + i, base + j, 10.0);
      }
    }
  }
  for (int c = 0; c < 3; ++c) builder.AddEdge(c * 8, (c + 1) * 8, 1.0);
  const CsrGraph g = builder.Build();
  const auto r = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 100.0; }, {});
  for (int c = 0; c < 4; ++c) {
    const int expected = r.group_of[static_cast<std::size_t>(c * 8)];
    for (int i = 1; i < 8; ++i) {
      EXPECT_EQ(r.group_of[static_cast<std::size_t>(c * 8 + i)], expected)
          << "clique " << c << " split";
    }
  }
}

// Parameterized scalability/sanity sweep.
class RecursivePartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(RecursivePartitionSweep, HandlesSize) {
  const int n = GetParam();
  const CsrGraph g = RandomGraph(n, 8.0, static_cast<std::uint64_t>(n));
  const double cap = g.total_demand().cpu / 20.0;
  const auto r = RecursivePartition(
      g, [cap](const Resource& d) { return d.cpu <= cap; }, {});
  EXPECT_GE(r.num_groups, 15);
  EXPECT_NEAR(g.CutWeightKWay(r.group_of), r.cut_weight, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecursivePartitionSweep,
                         ::testing::Values(100, 1000, 5000));

// --- multi-trial FM winner fold (graph/refine.h) ----------------------------

TEST(PickFmWinnerTest, SmallerViolationBeatsSmallerCut) {
  const std::vector<FmTrialOutcome> trials = {
      {.violation = 2.0, .cut = 1.0},   // best cut, infeasible
      {.violation = 0.0, .cut = 50.0},  // feasible
      {.violation = 0.0, .cut = 40.0},  // feasible, best feasible cut
  };
  EXPECT_EQ(PickFmWinner(trials), 2u);
}

TEST(PickFmWinnerTest, TiesKeepTheSmallestTrialId) {
  const std::vector<FmTrialOutcome> trials = {
      {.violation = 0.0, .cut = 10.0},
      {.violation = 0.0, .cut = 10.0},
      {.violation = 0.0, .cut = 10.0 + 1e-13},  // inside tolerance: a tie
  };
  EXPECT_EQ(PickFmWinner(trials), 0u);
}

TEST(PickFmWinnerTest, FoldIsInvariantToOutcomePermutationModuloIds) {
  // The fold must be a pure function of the outcome *vector* — the same
  // outcomes in a different trial order may name a different id, but the
  // winning (violation, cut) value must be identical. That is exactly the
  // property the multi-trial refinement relies on: trial results are
  // gathered into trial-id order before folding, so completion order can
  // never leak in.
  std::vector<FmTrialOutcome> trials = {
      {.violation = 0.0, .cut = 31.0},
      {.violation = 1.0, .cut = 7.0},
      {.violation = 0.0, .cut = 29.0},
      {.violation = 0.0, .cut = 33.0},
  };
  const auto base = trials[PickFmWinner(trials)];
  std::vector<std::size_t> perm = {3, 0, 2, 1};
  std::vector<FmTrialOutcome> shuffled;
  for (const auto i : perm) shuffled.push_back(trials[i]);
  const auto alt = shuffled[PickFmWinner(shuffled)];
  EXPECT_DOUBLE_EQ(alt.violation, base.violation);
  EXPECT_DOUBLE_EQ(alt.cut, base.cut);
}

TEST(BisectTest, MultiTrialRefinementNeverLosesToSingleTrial) {
  // Trial 0 replays the classic single-trial trajectory and the fold keeps
  // the best (violation, cut), so enabling trials can only improve the cut
  // for a feasible result.
  Rng rng(123);
  CsrGraphBuilder builder;
  constexpr int kN = 6000;  // above parallel_min_vertices: trials engage
  for (int i = 0; i < kN; ++i) {
    builder.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int s = 0; s + 8 <= kN; s += 8) {
    for (int i = 1; i < 8; ++i) {
      builder.AddEdge(s, s + i, rng.Uniform(100, 5000));
    }
  }
  for (int e = 0; e < kN / 2; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(kN));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(kN));
    if (a != b) builder.AddEdge(a, b, rng.Uniform(1, 50));
  }
  const CsrGraph g = builder.Build();
  PartitionOptions single;
  single.fm_trials = 1;
  const Bisection base = Bisect(g, single);
  PartitionOptions multi;
  ASSERT_GE(multi.fm_trials, 2) << "default must exercise the trial fold";
  const Bisection best = Bisect(g, multi);
  EXPECT_LE(best.cut_weight, base.cut_weight + 1e-9);
}

// --- Growing-trial stop ----------------------------------------------------------

// `cliques` disconnected cliques of `size` vertices with weights in
// 0.1..0.9, so an equal split along the cliques is balanced with zero cut.
// A nonzero `anti_affinity` adds that (negative) arc between the first
// vertices of cliques 0 and 1.
CsrGraph DisjointCliques(int cliques, int size, double anti_affinity = 0.0) {
  CsrGraphBuilder builder;
  for (int i = 0; i < cliques * size; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int c = 0; c < cliques; ++c) {
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        builder.AddEdge(c * size + i, c * size + j,
                        0.1 * static_cast<double>(1 + (i + j) % 9));
      }
    }
  }
  if (anti_affinity != 0.0) builder.AddEdge(0, size, anti_affinity);
  return builder.Build();
}

// Deltas of the bisection's work counters across one Bisect call.
struct TrialWork {
  Bisection bis;
  std::uint64_t skipped = 0;
  std::uint64_t arcs = 0;
};

TrialWork BisectCounted(const CsrGraph& g, const PartitionOptions& opts) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Counter& skipped = reg.GetCounter(
      "partition.initial_trials_skipped", obs::MetricKind::kDeterministic);
  const obs::Counter& arcs = reg.GetCounter(
      "partition.cut_edges_evaluated", obs::MetricKind::kDeterministic);
  const std::uint64_t skipped_before = skipped.value();
  const std::uint64_t arcs_before = arcs.value();
  TrialWork w;
  w.bis = Bisect(g, opts);
  w.skipped = skipped.value() - skipped_before;
  w.arcs = arcs.value() - arcs_before;
  return w;
}

TEST(BisectTrialStop, BalancedZeroCutEndsTheGrowingTrials) {
  // The first trial grows one whole clique: balanced, cut 0. No later trial
  // can beat that, so the other seven never run and the result is the one
  // a single trial returns.
  const CsrGraph g = DisjointCliques(2, 12);
  PartitionOptions one;
  one.initial_trials = 1;
  PartitionOptions eight;
  eight.initial_trials = 8;
  const TrialWork a = BisectCounted(g, one);
  const TrialWork b = BisectCounted(g, eight);
  EXPECT_TRUE(b.bis.balanced);
  EXPECT_EQ(b.bis.cut_weight, 0.0);
  EXPECT_EQ(b.bis.side, a.bis.side);
  EXPECT_EQ(b.bis.cut_weight, a.bis.cut_weight);
  EXPECT_EQ(a.skipped, 0u);
  EXPECT_EQ(b.skipped, 7u);
  EXPECT_EQ(b.arcs, a.arcs);

  // Joined by a bridge, the best cut is positive and a later trial could
  // still find a smaller one: every trial runs.
  const TrialWork bridged = BisectCounted(TwoCliques(12), eight);
  EXPECT_DOUBLE_EQ(bridged.bis.cut_weight, 1.0);
  EXPECT_EQ(bridged.skipped, 0u);
}

TEST(BisectTrialStop, NegativeArcKeepsEveryTrial) {
  // An anti-affinity arc makes a negative cut possible, so a later trial
  // could still win: every trial runs.
  const CsrGraph g = DisjointCliques(2, 12, -0.5);
  PartitionOptions one;
  one.initial_trials = 1;
  PartitionOptions eight;
  eight.initial_trials = 8;
  const TrialWork a = BisectCounted(g, one);
  const TrialWork b = BisectCounted(g, eight);
  EXPECT_NE(b.bis.side[0], b.bis.side[12]);
  EXPECT_EQ(b.skipped, 0u);
  EXPECT_GT(b.arcs, a.arcs);
}

TEST(BisectTrialStop, UnbalancedBestKeepsEveryTrial) {
  // Balance weights 1, 1, 1 and 9 admit no split within tolerance, so the
  // best trial stays unbalanced even at zero cut, and a later trial could
  // still lower its violation: every trial runs.
  CsrGraphBuilder builder;
  for (const double bw : {1.0, 1.0, 1.0, 9.0}) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, bw);
  }
  builder.AddEdge(0, 1, 0.3);
  builder.AddEdge(1, 2, 0.7);
  const CsrGraph g = builder.Build();
  PartitionOptions eight;
  eight.initial_trials = 8;
  const TrialWork w = BisectCounted(g, eight);
  EXPECT_FALSE(w.bis.balanced);
  EXPECT_EQ(w.skipped, 0u);
}

TEST(BisectTrialStop, LevelsThatReadTheirSaltKeepEveryTrial) {
  // 520 cliques of 8: above parallel_min_vertices, so with several FM
  // trials the finest level reads the salt drawn after the growing trials,
  // and skipping trials would change it. With one FM trial no salt is read.
  const CsrGraph g = DisjointCliques(520, 8);
  PartitionOptions multi;
  ASSERT_GE(g.num_vertices(), multi.parallel_min_vertices);
  ASSERT_GT(multi.fm_trials, 1);
  PartitionOptions single;
  single.fm_trials = 1;
  const TrialWork m = BisectCounted(g, multi);
  const TrialWork s = BisectCounted(g, single);
  EXPECT_TRUE(m.bis.balanced);
  EXPECT_TRUE(s.bis.balanced);
  EXPECT_EQ(m.skipped, 0u);
  EXPECT_GT(s.skipped, 0u);
}

// --- FM: one queue per side ---------------------------------------------------------

// Deltas of FM's deterministic work counters across one call.
struct FmWork {
  std::uint64_t rejections = 0;
  std::uint64_t arcs = 0;
};

template <typename Fn>
FmWork CountFmWork(Fn&& fn) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Counter& rejections = reg.GetCounter(
      "partition.bisection_rejections", obs::MetricKind::kDeterministic);
  const obs::Counter& arcs = reg.GetCounter(
      "partition.cut_edges_evaluated", obs::MetricKind::kDeterministic);
  const std::uint64_t rejections_before = rejections.value();
  const std::uint64_t arcs_before = arcs.value();
  fn();
  return {rejections.value() - rejections_before, arcs.value() - arcs_before};
}

double SideZeroWeight(const CsrGraph& g, const std::vector<std::uint8_t>& side) {
  double w0 = 0.0;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    if (side[static_cast<std::size_t>(v)] == 0) w0 += g.balance_weight(v);
  }
  return w0;
}

TEST(FmQueues, BlockedTopWaitsWhileTheOtherSideMoves) {
  // Unit weights; side 0 = {a, q, f0, z0} (4), side 1 = {b, p, f1, z1..z3}
  // (6). With tolerance 0.2 side 0 must keep 4..6, so it sits at its lower
  // bound. Edges: a-p 10, b-q 3, q-f0 5, p-f1 20, f0-f1 1; the z's are
  // isolated filler. a has the best gain (10) but moving it first would
  // leave side 0 at 3. b (gain 3) moves first, then a fits: the cut falls
  // 14 -> 11 -> 1, leaving only f0-f1 cut. A single queue would pop a as a
  // rejection and lose it for the pass.
  enum : VertexIndex { a, q, f0, z0, b, p, f1, z1, z2, z3 };
  CsrGraphBuilder builder;
  for (int i = 0; i < 10; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  builder.AddEdge(a, p, 10.0);
  builder.AddEdge(b, q, 3.0);
  builder.AddEdge(q, f0, 5.0);
  builder.AddEdge(p, f1, 20.0);
  builder.AddEdge(f0, f1, 1.0);
  const CsrGraph g = builder.Build();
  std::vector<std::uint8_t> side = {0, 0, 0, 0, 1, 1, 1, 1, 1, 1};

  PartitionOptions opts;
  opts.balance_tolerance = 0.2;
  opts.refine_passes = 1;
  const BalanceBounds bounds(g.total_balance_weight(), 0.5,
                             opts.balance_tolerance);
  PartitionScratch s;
  double cut = 0.0;
  double w0 = 4.0;
  const FmWork work = CountFmWork(
      [&] { FmRefine(g, bounds, opts, side, cut, w0, s); });

  ASSERT_GE(s.move_seq.size(), 2u);
  EXPECT_EQ(s.move_seq[0], b);
  EXPECT_EQ(s.move_seq[1], a);  // the blocked vertex, later in the pass
  EXPECT_EQ(work.rejections, 0u);
  EXPECT_EQ(cut, 1.0);
  EXPECT_EQ(w0, 4.0);
  EXPECT_EQ(side, (std::vector<std::uint8_t>{1, 0, 0, 0, 0, 1, 1, 1, 1, 1}));
  EXPECT_EQ(g.CutWeight(side), 1.0);
}

// Random graph with anti-affinity arcs and a few heavy vertices.
CsrGraph MixedSignGraph(int n, std::uint64_t seed) {
  Rng rng(seed);
  CsrGraphBuilder builder;
  for (int i = 0; i < n; ++i) {
    const double bw =
        rng.NextBelow(16) == 0 ? rng.Uniform(6.0, 12.0) : rng.Uniform(0.5, 2.0);
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, bw);
  }
  for (int e = 0; e < 3 * n; ++e) {
    const auto u = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto v = static_cast<VertexIndex>(rng.NextBelow(n));
    if (u == v) continue;
    const double w = rng.NextBelow(8) == 0 ? -rng.Uniform(1.0, 20.0)
                                           : rng.Uniform(0.5, 5.0);
    builder.AddEdge(u, v, w);
  }
  return builder.Build();
}

TEST(FmQueues, AcceptedMovesNeverWorsenTheBalance) {
  // Every pass's moves, rolled-back ones included, replayed from the pass's
  // start: from a feasible start each one stays feasible, and from an
  // infeasible one the violation never grows.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    const CsrGraph g = MixedSignGraph(160, seed);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    PartitionOptions opts;
    opts.refine_passes = 1;
    const BalanceBounds bounds(g.total_balance_weight(), 0.5,
                               opts.balance_tolerance);
    Rng rng(seed * 977);
    std::vector<std::uint8_t> side(n, 1);
    // Odd seeds start feasible (greedy fill of side 0 in a random order),
    // even seeds with side 0 at a tenth of the total.
    const double fill = seed % 2 == 1 ? bounds.target0 : 0.1 * bounds.total;
    std::vector<VertexIndex> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    double w0 = 0.0;
    for (const auto v : order) {
      if (w0 + g.balance_weight(v) <= fill) {
        side[static_cast<std::size_t>(v)] = 0;
        w0 += g.balance_weight(v);
      }
    }
    ASSERT_EQ(bounds.Violation(w0) == 0.0, seed % 2 == 1);

    PartitionScratch s;
    double cut = 0.0;
    std::size_t moves = 0;
    for (int pass = 0; pass < 6; ++pass) {
      const std::vector<std::uint8_t> start = side;
      double replay_w0 = w0;
      FmRefine(g, bounds, opts, side, cut, w0, s);
      for (const auto v : s.move_seq) {
        const double before = bounds.Violation(replay_w0);
        replay_w0 += start[static_cast<std::size_t>(v)] == 0
                         ? -g.balance_weight(v)
                         : g.balance_weight(v);
        const double after = bounds.Violation(replay_w0);
        if (before <= 1e-12) {
          EXPECT_LE(after, 1e-12);
        } else {
          EXPECT_TRUE(after < before || after <= 1e-12);
        }
      }
      moves += s.move_seq.size();
      EXPECT_NEAR(w0, SideZeroWeight(g, side), 1e-9);
      EXPECT_NEAR(cut, g.CutWeight(side), 1e-6);
    }
    EXPECT_GT(moves, 0u);
    EXPECT_LE(bounds.Violation(w0), 1e-12);
  }
}

TEST(FmQueues, MsrRecursivePartitionWorkIsPinned) {
  // A reduced Fig 13 container graph (500 trace vertices, 4,500
  // containers): above parallel_min_vertices, so its first bisection runs
  // the multi-trial levels. The rejection count is the number of pops where
  // neither side's top may move; a queue that drains balance-blocked
  // vertices instead shows up here.
  MsrScenarioOptions mopts;
  mopts.trace_vertices = 500;
  const auto scenario = MakeMsrLargeScaleScenario(mopts);
  const auto demands = scenario->DemandsAt(0);
  const auto active = scenario->ActiveAt(0);
  const Resource server{.cpu = 7200, .mem_gb = 1536, .net_mbps = 10000};
  const ContainerGraph cg =
      BuildContainerGraph(scenario->workload(), demands, active, server);
  ASSERT_EQ(cg.graph.num_vertices(), 4500);
  PartitionOptions opts;
  ASSERT_GE(cg.graph.num_vertices(), opts.parallel_min_vertices);
  // Goldilocks' grouping ceiling: 70% CPU/network less 10% headroom, the
  // network relaxed 8x, memory whole.
  const Resource ceiling{.cpu = 7200 * 0.63, .mem_gb = 1536 * 0.9,
                         .net_mbps = 10000 * 0.63 * 8};
  const auto fits = [&ceiling](const Resource& d) {
    return d.FitsIn(ceiling);
  };
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    opts.threads = threads;
    RecursivePartitionResult part;
    const FmWork work = CountFmWork(
        [&] { part = RecursivePartition(cg.graph, fits, opts); });
    EXPECT_EQ(part.num_groups, 165);
    EXPECT_EQ(work.rejections, 1744u);
    EXPECT_EQ(work.arcs, 580824u);
  }
}

// --- Each piece of a repartition done once per input ------------------------

// Vertex weights of a clustered graph: demands drawn from `seed`, balance
// weights normalized against a server, as the container graph's are.
struct VertexWeights {
  std::vector<Resource> demand;
  std::vector<double> balance;
};

constexpr Resource kClusterServer{.cpu = 400, .mem_gb = 64, .net_mbps = 1000};

VertexWeights ClusteredWeights(int n, std::uint64_t seed) {
  Rng rng(seed);
  VertexWeights w;
  for (int i = 0; i < n; ++i) {
    w.demand.push_back(Resource{.cpu = rng.Uniform(5, 60),
                                .mem_gb = rng.Uniform(0.5, 4),
                                .net_mbps = rng.Uniform(5, 50)});
    w.balance.push_back(w.demand.back().NormalizedL1(kClusterServer));
  }
  return w;
}

// Services of 8 with heavy integer flows inside and sparse light ones
// between them: the shape of a container graph. The arcs never depend on
// `w`. With `replica_sets`, every 320 vertices hold one three-member
// anti-affinity clique across three services, as Goldilocks' replica sets.
CsrGraph ClusteredGraph(const VertexWeights& w, bool replica_sets) {
  const auto n = static_cast<int>(w.demand.size());
  CsrGraphBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.AddVertex(w.demand[static_cast<std::size_t>(i)],
                      w.balance[static_cast<std::size_t>(i)]);
  }
  Rng rng(0xc1);
  for (int s = 0; s + 8 <= n; s += 8) {
    for (int i = 1; i < 8; ++i) {
      builder.AddEdge(s, s + i, std::floor(rng.Uniform(100, 5000)));
    }
  }
  for (int e = 0; e < n / 2; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a != b) builder.AddEdge(a, b, std::floor(rng.Uniform(1, 50)));
  }
  if (replica_sets) {
    for (int base = 0; base + 320 <= n; base += 320) {
      const int members[3] = {base + 3, base + 107, base + 221};
      for (int i = 0; i < 3; ++i) {
        for (int j = i + 1; j < 3; ++j) {
          builder.AddEdge(members[i], members[j], -1.0e5);
        }
      }
    }
  }
  return builder.Build();
}

// Goldilocks' fit predicate and capacity units against one group ceiling.
const Resource kClusterCeiling{.cpu = 1500, .mem_gb = 60, .net_mbps = 4000};

bool ClusterFits(const Resource& d) { return d.FitsIn(kClusterCeiling); }

double ClusterUnits(const Resource& d) {
  return std::max({d.cpu / kClusterCeiling.cpu,
                   d.mem_gb / kClusterCeiling.mem_gb,
                   d.net_mbps / kClusterCeiling.net_mbps});
}

// One RecursivePartition with the deterministic counters it moved.
struct CountedPartition {
  RecursivePartitionResult result;
  std::vector<obs::CounterValue> counters;
};

CountedPartition PartitionCounted(const CsrGraph& g,
                                  const PartitionOptions& opts) {
  auto& reg = obs::MetricsRegistry::Global();
  const auto before = reg.SnapshotCounters(obs::MetricKind::kDeterministic);
  CountedPartition out;
  out.result = RecursivePartition(g, ClusterFits, opts, ClusterUnits);
  out.counters = obs::MetricsRegistry::DeltaCounters(
      before, reg.SnapshotCounters(obs::MetricKind::kDeterministic));
  return out;
}

std::uint64_t CounterDelta(const CountedPartition& p, std::string_view name) {
  for (const auto& c : p.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// A pinned result: group count, a digest of group_of and group_path, the
// cut's bits, and FM's two work counters.
struct PartitionPin {
  int num_groups;
  std::uint64_t digest;
  std::uint64_t cut_bits;
  std::uint64_t arcs;
  std::uint64_t rejections;
};

void ExpectPinned(const CountedPartition& p, const PartitionPin& pin) {
  StateHasher h;
  for (const int gi : p.result.group_of) h.MixI32(gi);
  for (const auto& path : p.result.group_path) {
    h.MixU64(path.size());
    for (const char c : path) h.MixI32(c);
  }
  EXPECT_EQ(p.result.num_groups, pin.num_groups);
  EXPECT_EQ(h.digest(), pin.digest);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.result.cut_weight), pin.cut_bits)
      << p.result.cut_weight;
  EXPECT_EQ(CounterDelta(p, "partition.cut_edges_evaluated"), pin.arcs);
  EXPECT_EQ(CounterDelta(p, "partition.bisection_rejections"),
            pin.rejections);
}

TEST(RecursivePartition, ClusteredWorkIsPinned) {
  // 4,800 vertices: above parallel_min_vertices, so the root runs the
  // multi-trial levels, and many growing trials start from sides that an
  // earlier trial of the same bisection already refined. The FM counters
  // add every trial's work, replayed or not.
  const CsrGraph g = ClusteredGraph(ClusteredWeights(4800, 2), false);
  PartitionOptions opts;
  ASSERT_GE(g.num_vertices(), opts.parallel_min_vertices);
  const CountedPartition p = PartitionCounted(g, opts);
  ExpectPinned(p, {280, 0x69ee9647f10c5e04, 0x40fb5e4000000000, 449205, 61});
  EXPECT_EQ(CounterDelta(p, "graph.induced_subgraph_builds"), 0u);
  EXPECT_EQ(CounterDelta(p, "partition.subgraph_views"), 279u);
}

TEST(RecursivePartition, AntiAffinityRecursionIsPinned) {
  // Replica cliques keep a group that fits from stopping until the
  // recursion has separated its replicas: the terminal check reads the
  // range's arcs.
  const CsrGraph g = ClusteredGraph(ClusteredWeights(2400, 3), true);
  const CountedPartition p = PartitionCounted(g, PartitionOptions{});
  ExpectPinned(p, {135, 0xc516bcbb8db48d52, 0xc13f12b700000000, 247253, 21});
  for (int base = 0; base + 320 <= 2400; base += 320) {
    const auto& group = p.result.group_of;
    EXPECT_NE(group[static_cast<std::size_t>(base + 3)],
              group[static_cast<std::size_t>(base + 107)]);
    EXPECT_NE(group[static_cast<std::size_t>(base + 3)],
              group[static_cast<std::size_t>(base + 221)]);
    EXPECT_NE(group[static_cast<std::size_t>(base + 107)],
              group[static_cast<std::size_t>(base + 221)]);
  }
  PartitionOptions wide;
  wide.threads = 8;
  const CountedPartition q = PartitionCounted(g, wide);
  EXPECT_EQ(q.result.group_of, p.result.group_of);
  EXPECT_EQ(q.result.group_path, p.result.group_path);
  EXPECT_EQ(q.result.cut_weight, p.result.cut_weight);
}

// Sets every vertex weight of `g`, a ClusteredGraph, to `w` by column
// refresh: the arcs and the structure stamp stay.
void RefreshWeights(CsrGraph& g, const VertexWeights& w) {
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    g.SetDemand(v, w.demand[static_cast<std::size_t>(v)]);
    g.SetBalanceWeight(v, w.balance[static_cast<std::size_t>(v)]);
  }
  g.EndColumnRefresh();
}

void ExpectSamePartition(const CountedPartition& a, const CountedPartition& b) {
  EXPECT_EQ(a.result.group_of, b.result.group_of);
  EXPECT_EQ(a.result.group_path, b.result.group_path);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.result.cut_weight),
            std::bit_cast<std::uint64_t>(b.result.cut_weight));
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name);
    EXPECT_EQ(a.counters[i].value, b.counters[i].value) << a.counters[i].name;
  }
}

CountedPartition PartitionCounted(const CsrGraph& g,
                                  const PartitionOptions& opts,
                                  PartitionMemo* memo) {
  auto& reg = obs::MetricsRegistry::Global();
  const auto before = reg.SnapshotCounters(obs::MetricKind::kDeterministic);
  CountedPartition out;
  out.result = RecursivePartition(g, ClusterFits, opts, ClusterUnits, memo);
  out.counters = obs::MetricsRegistry::DeltaCounters(
      before, reg.SnapshotCounters(obs::MetricKind::kDeterministic));
  return out;
}

TEST(PartitionMemo, HitEqualsAMemoLessPartition) {
  // The root's coarsening of weights A, re-summed for weights B, must give
  // exactly the partition a memo-less call gives on B: groups, paths, cut
  // bits and every deterministic counter. B's partition is pinned, at the
  // multi-trial size, so the salts drawn after the restored stream count.
  const VertexWeights a = ClusteredWeights(4800, 2);
  const VertexWeights b = ClusteredWeights(4800, 5);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    PartitionOptions opts;
    opts.threads = threads;
    const CountedPartition fresh =
        PartitionCounted(ClusteredGraph(b, false), opts);
    ExpectPinned(fresh,
                 {279, 0x4236420e9db0e58f, 0x41009cc000000000, 460076, 77});
    EXPECT_EQ(CounterDelta(fresh, "partition.subgraph_views"), 278u);

    CsrGraph g = ClusteredGraph(a, false);
    const std::uint64_t stamp = g.structure_stamp();
    PartitionMemo memo;
    const CountedPartition warm = PartitionCounted(g, opts, &memo);
    ExpectSamePartition(warm, PartitionCounted(g, opts));
    EXPECT_EQ(memo.hits, 0u);
    EXPECT_GE(memo.depth, 3u);

    RefreshWeights(g, b);
    EXPECT_EQ(g.structure_stamp(), stamp);
    const CountedPartition hit = PartitionCounted(g, opts, &memo);
    EXPECT_EQ(memo.hits, 1u);
    ExpectSamePartition(hit, fresh);
  }
}

TEST(PartitionMemo, ChangedArcWeightMisses) {
  // A graph built again with one arc weight changed has a new structure
  // stamp, so a memo warmed on the first is not used.
  const VertexWeights w = ClusteredWeights(2400, 2);
  const CsrGraph g = ClusteredGraph(w, false);
  CsrGraphBuilder builder;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    builder.AddVertex(g.demand(v), g.balance_weight(v));
  }
  bool changed = false;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const auto [to, ws] = g.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      if (to[i] <= v) continue;
      builder.AddEdge(v, to[i], changed ? ws[i] : ws[i] + 1.0);
      changed = true;
    }
  }
  const CsrGraph other = builder.Build();
  ASSERT_EQ(other.num_arcs(), g.num_arcs());
  EXPECT_NE(other.structure_stamp(), g.structure_stamp());

  PartitionMemo memo;
  PartitionCounted(g, PartitionOptions{}, &memo);
  const CountedPartition with_memo =
      PartitionCounted(other, PartitionOptions{}, &memo);
  EXPECT_EQ(memo.hits, 0u);
  ExpectSamePartition(with_memo, PartitionCounted(other, PartitionOptions{}));

  // The memo now holds `other` under the default options: another
  // coarsening target or another seed alone misses too.
  PartitionOptions coarser;
  coarser.coarsen_target = 48;
  const CountedPartition retargeted = PartitionCounted(other, coarser, &memo);
  EXPECT_EQ(memo.hits, 0u);
  ExpectSamePartition(retargeted, PartitionCounted(other, coarser));
  PartitionCounted(other, PartitionOptions{}, &memo);
  PartitionOptions reseeded;
  reseeded.seed = 7;
  const CountedPartition resown = PartitionCounted(other, reseeded, &memo);
  EXPECT_EQ(memo.hits, 0u);
  ExpectSamePartition(resown, PartitionCounted(other, reseeded));
  // And the same key hits.
  PartitionCounted(other, reseeded, &memo);
  EXPECT_EQ(memo.hits, 1u);
}

}  // namespace
}  // namespace gl
