#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "graph/incremental.h"

namespace gl {
namespace {

// Clustered graph: `k` cliques of `size`, weak ring between cliques.
CsrGraphBuilder Cliques(int k, int size, double intra = 10.0,
                        double inter = 0.5) {
  CsrGraphBuilder g;
  for (int c = 0; c < k; ++c) {
    for (int i = 0; i < size; ++i) {
      g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
    }
  }
  for (int c = 0; c < k; ++c) {
    const int base = c * size;
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) g.AddEdge(base + i, base + j, intra);
    }
    g.AddEdge(base, ((c + 1) % k) * size, inter);
  }
  return g;
}

FitPredicate CpuFit(double limit) {
  return [limit](const Resource& d) { return d.cpu <= limit; };
}

TEST(Incremental, NoChangeNoMoves) {
  const CsrGraph g = Cliques(4, 8).Build();  // clique cpu = 80
  std::vector<int> previous(32);
  for (int v = 0; v < 32; ++v) previous[static_cast<std::size_t>(v)] = v / 8;
  const auto r = IncrementalRepartition(g, previous, CpuFit(100.0), {});
  EXPECT_EQ(r.moved_vertices, 0);
  EXPECT_EQ(r.num_groups, 4);
  EXPECT_EQ(r.infeasible_groups, 0);
}

TEST(Incremental, NewVerticesJoinTheirClique) {
  CsrGraphBuilder b = Cliques(2, 6);
  // Two newcomers, each attached to one clique.
  const auto n1 = b.AddVertex({.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  const auto n2 = b.AddVertex({.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  b.AddEdge(n1, 0, 20.0);
  b.AddEdge(n2, 6, 20.0);
  const CsrGraph g = b.Build();
  std::vector<int> previous(static_cast<std::size_t>(g.num_vertices()), -1);
  for (int v = 0; v < 12; ++v) previous[static_cast<std::size_t>(v)] = v / 6;
  const auto r = IncrementalRepartition(g, previous, CpuFit(100.0), {});
  EXPECT_EQ(r.moved_vertices, 0);  // old vertices stay put
  EXPECT_EQ(r.group_of[static_cast<std::size_t>(n1)], r.group_of[0]);
  EXPECT_EQ(r.group_of[static_cast<std::size_t>(n2)], r.group_of[6]);
}

TEST(Incremental, OverfullGroupIsRepaired) {
  const CsrGraph g = Cliques(2, 8).Build();  // clique cpu 80
  // Previous assignment crams everything into one group.
  std::vector<int> previous(16, 0);
  const auto r = IncrementalRepartition(g, previous, CpuFit(100.0), {});
  EXPECT_EQ(r.infeasible_groups, 0);
  EXPECT_GE(r.num_groups, 2);
  // Repair should split along the clique boundary, not across it.
  EXPECT_LE(r.cut_weight, 2.0 * 0.5 + 1e-9);
}

TEST(Incremental, MovesStayBounded) {
  Rng rng(9);
  const CsrGraph g = Cliques(8, 8).Build();
  // Previous matches cliques; one group is mildly overfull after a demand
  // bump on two vertices.
  std::vector<int> previous(64);
  for (int v = 0; v < 64; ++v) previous[static_cast<std::size_t>(v)] = v / 8;
  const auto r = IncrementalRepartition(g, previous, CpuFit(85.0), {});
  EXPECT_EQ(r.infeasible_groups, 0);
  // Feasible everywhere already (clique cpu 80 ≤ 85): nothing must move
  // beyond the refinement budget.
  IncrementalOptions opts;
  EXPECT_LE(r.moved_vertices,
            static_cast<int>(opts.migration_budget_fraction * 64) + 1);
}

TEST(Incremental, FarFewerMovesThanFreshPartition) {
  const CsrGraph g = Cliques(16, 8).Build();
  std::vector<int> previous(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    previous[static_cast<std::size_t>(v)] = v / 8;
  }
  // Tighten the limit slightly: 80-cpu cliques no longer fit 75.
  const auto inc = IncrementalRepartition(g, previous, CpuFit(75.0), {});
  EXPECT_EQ(inc.infeasible_groups, 0);

  // A fresh recursive partition relabels arbitrarily; measure its diff.
  const auto fresh = RecursivePartition(
      g, [](const Resource& d) { return d.cpu <= 75.0; }, {});
  int fresh_moves = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    // Any vertex whose fresh group differs in membership from its previous
    // clique counts; approximate via group-of-first-clique-member.
    const int rep = (v / 8) * 8;
    if (fresh.group_of[static_cast<std::size_t>(v)] !=
        fresh.group_of[static_cast<std::size_t>(rep)]) {
      ++fresh_moves;
    }
  }
  // The incremental repair moves at most ~2 vertices per overfull clique.
  EXPECT_LE(inc.moved_vertices, 16 * 3);
  EXPECT_GT(inc.num_groups, 16);
}

TEST(Incremental, CutQualityStaysReasonable) {
  const CsrGraph g = Cliques(8, 8, 10.0, 1.0).Build();
  std::vector<int> previous(64);
  for (int v = 0; v < 64; ++v) previous[static_cast<std::size_t>(v)] = v / 8;
  const auto r = IncrementalRepartition(g, previous, CpuFit(90.0), {});
  // Previous was optimal (cut = 8 ring edges × 1.0); incremental must not
  // degrade it.
  EXPECT_LE(r.cut_weight, 8.0 + 1e-9);
}

TEST(Incremental, RefinementImprovesBadAssignments) {
  // Previous assignment swaps two vertices across cliques; refinement
  // should send them home.
  const CsrGraph g = Cliques(2, 8).Build();
  std::vector<int> previous(16);
  for (int v = 0; v < 16; ++v) previous[static_cast<std::size_t>(v)] = v / 8;
  std::swap(previous[0], previous[8]);
  const auto r = IncrementalRepartition(g, previous, CpuFit(100.0), {});
  EXPECT_EQ(r.group_of[0], r.group_of[1]);
  EXPECT_EQ(r.group_of[8], r.group_of[9]);
  EXPECT_LE(r.cut_weight, 1.0 + 1e-9);
}

TEST(Incremental, SparseOldIdsAreAccepted) {
  const CsrGraph g = Cliques(2, 4).Build();
  std::vector<int> previous{7, 7, 7, 7, 1000, 1000, 1000, 1000};
  const auto r = IncrementalRepartition(g, previous, CpuFit(100.0), {});
  EXPECT_EQ(r.num_groups, 2);
  EXPECT_EQ(r.moved_vertices, 0);
}

TEST(Incremental, AllNewVerticesStillWork) {
  const CsrGraph g = Cliques(3, 6).Build();
  std::vector<int> previous(18, -1);
  const auto r = IncrementalRepartition(g, previous, CpuFit(70.0), {});
  EXPECT_EQ(r.infeasible_groups, 0);
  int placed = 0;
  for (const int gi : r.group_of) placed += gi >= 0;
  EXPECT_EQ(placed, 18);
}

}  // namespace
}  // namespace gl
