// Tests for the deterministic parallel coarsening kernels (DESIGN.md §16):
// heavy-edge matching must be bit-identical at every thread width, produce
// only structurally valid pairings on adversarial shapes (stars, paths,
// cliques), and contraction must reproduce the exact cluster-quotient graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/coarsen.h"
#include "graph/csr.h"
#include "graph/scratch.h"

namespace gl {
namespace {

// Clustered random graph in the bench shape: services of ~4 with heavy
// intra edges plus sparse light inter edges. Positive weights only —
// matching ignores anti-affinity edges, which MatchingSkipsNegativeEdges
// covers separately.
CsrGraph RandomCsr(int n, std::uint64_t seed) {
  Rng rng(seed);
  CsrGraphBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1},
                      1.0 + static_cast<double>(rng.NextBelow(3)));
  }
  for (int s = 0; s + 4 <= n; s += 4) {
    for (int i = 1; i < 4; ++i) {
      builder.AddEdge(s, s + i, static_cast<double>(1 + rng.NextBelow(9)));
    }
  }
  for (int e = 0; e < n; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a != b) {
      builder.AddEdge(a, b, static_cast<double>(1 + rng.NextBelow(5)));
    }
  }
  return builder.Build();
}

// Runs matching + contraction with a fresh Rng(seed) on `threads` workers
// (nullptr pool when threads == 1, like the partitioner's serial path).
struct CoarsenRun {
  std::vector<VertexIndex> match;
  std::vector<VertexIndex> absorb;
  std::vector<VertexIndex> fine_to_coarse;
  CsrGraph coarse;
};

CoarsenRun RunCoarsen(const CsrGraph& g, int threads, std::uint64_t seed) {
  CoarsenRun run;
  PartitionScratch s;
  Rng rng(seed);
  if (threads == 1) {
    HeavyEdgeMatch(g, nullptr, rng, s);
    run.match = s.match;
    run.absorb = s.absorb;
    ContractByMatching(g, nullptr, run.coarse, run.fine_to_coarse, s);
  } else {
    ThreadPool pool(threads);
    HeavyEdgeMatch(g, &pool, rng, s);
    run.match = s.match;
    run.absorb = s.absorb;
    ContractByMatching(g, &pool, run.coarse, run.fine_to_coarse, s);
  }
  return run;
}

// Structural invariants every matching must satisfy: match is a settled
// involution (pairs are mutual, singletons self-matched), every pair spans
// a real positive edge, and absorption only folds singletons into paired
// vertices (no absorption chains by construction).
void CheckMatchingInvariants(const CsrGraph& g, const CoarsenRun& run) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  ASSERT_EQ(run.match.size(), n);
  ASSERT_EQ(run.absorb.size(), n);
  for (std::size_t sv = 0; sv < n; ++sv) {
    const auto v = static_cast<VertexIndex>(sv);
    const auto m = run.match[sv];
    ASSERT_GE(m, 0);
    ASSERT_LT(m, g.num_vertices());
    EXPECT_EQ(run.match[static_cast<std::size_t>(m)], v)
        << "pair must be mutual at v=" << v;
    if (m != v) {
      // The pair must be a real positive-weight edge.
      bool found = false;
      const auto [to, ws] = g.arc_range(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (to[i] == m && ws[i] > 0.0) found = true;
      }
      EXPECT_TRUE(found) << "matched non-edge " << v << "-" << m;
      EXPECT_EQ(run.absorb[sv], -1) << "paired vertex absorbed at " << v;
    } else if (run.absorb[sv] != -1) {
      const auto a = static_cast<std::size_t>(run.absorb[sv]);
      ASSERT_LT(a, n);
      // Absorbers are paired — never another singleton.
      EXPECT_NE(run.match[a], run.absorb[sv])
          << "absorber " << run.absorb[sv] << " is itself a singleton";
    }
  }
}

// Brute-force quotient of `fine` by fine_to_coarse: per coarse pair the
// summed crossing weight, per coarse vertex the summed balance weight.
void CheckContractionFaithful(const CsrGraph& fine, const CoarsenRun& run) {
  const auto n = static_cast<std::size_t>(fine.num_vertices());
  ASSERT_EQ(run.fine_to_coarse.size(), n);
  const auto nc = run.coarse.num_vertices();
  std::map<std::pair<VertexIndex, VertexIndex>, double> want_arcs;
  std::vector<double> want_balance(static_cast<std::size_t>(nc), 0.0);
  for (std::size_t sv = 0; sv < n; ++sv) {
    const auto v = static_cast<VertexIndex>(sv);
    const auto cv = run.fine_to_coarse[sv];
    ASSERT_GE(cv, 0);
    ASSERT_LT(cv, nc);
    want_balance[static_cast<std::size_t>(cv)] += fine.balance_weight(v);
    const auto [to, ws] = fine.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto cu = run.fine_to_coarse[static_cast<std::size_t>(to[i])];
      if (cu != cv) want_arcs[{cv, cu}] += ws[i];
    }
  }
  double total_balance = 0.0;
  std::size_t total_arcs = 0;
  for (VertexIndex c = 0; c < nc; ++c) {
    EXPECT_DOUBLE_EQ(run.coarse.balance_weight(c),
                     want_balance[static_cast<std::size_t>(c)]);
    const auto [to, ws] = run.coarse.arc_range(c);
    total_arcs += to.size();
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto it = want_arcs.find({c, to[i]});
      ASSERT_NE(it, want_arcs.end())
          << "coarse arc " << c << "->" << to[i] << " not in quotient";
      EXPECT_DOUBLE_EQ(ws[i], it->second);
    }
    total_balance += run.coarse.balance_weight(c);
  }
  // Every quotient arc present exactly once (no duplicates dropped/added).
  EXPECT_EQ(total_arcs, want_arcs.size());
  EXPECT_DOUBLE_EQ(total_balance, fine.total_balance_weight());
}

// --- determinism across thread widths --------------------------------------

TEST(CoarsenTest, MatchAndContractionAreBitIdenticalAtWidths128) {
  for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
    const CsrGraph g = RandomCsr(600, seed);
    const CoarsenRun serial = RunCoarsen(g, 1, seed);
    CheckMatchingInvariants(g, serial);
    CheckContractionFaithful(g, serial);
    for (const int threads : {2, 8}) {
      const CoarsenRun run = RunCoarsen(g, threads, seed);
      // Exact vector equality — the whole §9 contract, not just same cost.
      EXPECT_EQ(run.match, serial.match) << "threads=" << threads;
      EXPECT_EQ(run.absorb, serial.absorb) << "threads=" << threads;
      EXPECT_EQ(run.fine_to_coarse, serial.fine_to_coarse)
          << "threads=" << threads;
      ASSERT_EQ(run.coarse.num_vertices(), serial.coarse.num_vertices());
      ASSERT_EQ(run.coarse.num_arcs(), serial.coarse.num_arcs());
      for (VertexIndex c = 0; c < serial.coarse.num_vertices(); ++c) {
        EXPECT_DOUBLE_EQ(run.coarse.balance_weight(c),
                         serial.coarse.balance_weight(c));
        const auto [to_a, ws_a] = run.coarse.arc_range(c);
        const auto [to_b, ws_b] = serial.coarse.arc_range(c);
        ASSERT_EQ(to_a.size(), to_b.size());
        for (std::size_t i = 0; i < to_a.size(); ++i) {
          EXPECT_EQ(to_a[i], to_b[i]);
          EXPECT_DOUBLE_EQ(ws_a[i], ws_b[i]);
        }
      }
    }
  }
}

TEST(CoarsenTest, DifferentSeedsDecorrelateTheMatching) {
  // The per-level salt exists to vary pairings level-to-level; two seeds
  // must not produce the same matching on a graph with many near-equal
  // choices.
  const CsrGraph g = RandomCsr(600, 99);
  EXPECT_NE(RunCoarsen(g, 1, 5).match, RunCoarsen(g, 1, 6).match);
}

// --- adversarial shapes ------------------------------------------------------

TEST(CoarsenTest, StarCollapsesToOneCoarseVertexViaAbsorption) {
  // Hub + 16 leaves: pairwise matching strands 15 leaves; absorption must
  // fold them all into the hub's cluster in this single level.
  CsrGraphBuilder builder;
  constexpr int kLeaves = 16;
  for (int i = 0; i <= kLeaves; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int leaf = 1; leaf <= kLeaves; ++leaf) builder.AddEdge(0, leaf, 10.0);
  const CsrGraph csr = builder.Build();
  for (const int threads : {1, 8}) {
    const CoarsenRun run = RunCoarsen(csr, threads, 7);
    CheckMatchingInvariants(csr, run);
    CheckContractionFaithful(csr, run);
    EXPECT_EQ(run.coarse.num_vertices(), 1) << "threads=" << threads;
    EXPECT_EQ(run.coarse.num_arcs(), 0u) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(run.coarse.balance_weight(0),
                     static_cast<double>(kLeaves + 1));
  }
}

TEST(CoarsenTest, PathMatchesOnlyAdjacentPairs) {
  CsrGraphBuilder builder;
  constexpr int kN = 33;  // odd: at least one singleton/absorbee
  for (int i = 0; i < kN; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 0; i + 1 < kN; ++i) {
    builder.AddEdge(i, i + 1, static_cast<double>(1 + (i % 3)));
  }
  const CsrGraph csr = builder.Build();
  const CoarsenRun run = RunCoarsen(csr, 1, 11);
  CheckMatchingInvariants(csr, run);
  CheckContractionFaithful(csr, run);
  for (VertexIndex v = 0; v < csr.num_vertices(); ++v) {
    const auto m = run.match[static_cast<std::size_t>(v)];
    if (m != v) {
      EXPECT_EQ(std::abs(m - v), 1) << "non-adjacent pair at " << v;
    }
  }
  // A path shrinks by at least a third per level even on the odd tail.
  EXPECT_LE(run.coarse.num_vertices(), (2 * kN) / 3);
  EXPECT_EQ(RunCoarsen(csr, 8, 11).match, run.match);
}

TEST(CoarsenTest, CliquesMatchPerfectlyEvenAndAbsorbTheOddVertex) {
  for (const int kN : {8, 7}) {
    CsrGraphBuilder builder;
    for (int i = 0; i < kN; ++i) {
      builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
    }
    for (int a = 0; a < kN; ++a) {
      for (int b = a + 1; b < kN; ++b) builder.AddEdge(a, b, 5.0);
    }
    const CsrGraph csr = builder.Build();
    const CoarsenRun run = RunCoarsen(csr, 1, 3);
    CheckMatchingInvariants(csr, run);
    CheckContractionFaithful(csr, run);
    // Everyone is adjacent to everyone: the cleanup sweep leaves at most
    // one singleton (odd kN), and absorption folds it into some pair.
    EXPECT_EQ(run.coarse.num_vertices(), kN / 2);
    EXPECT_EQ(RunCoarsen(csr, 8, 3).match, run.match);
  }
}

TEST(CoarsenTest, MatchingSkipsNegativeEdges) {
  // Two anti-affine replicas bridged by negative weight: they must never
  // merge, even though the negative edge is their heaviest in magnitude.
  CsrGraphBuilder builder;
  for (int i = 0; i < 4; ++i) {
    builder.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  builder.AddEdge(0, 1, -100.0);  // replicas
  builder.AddEdge(0, 2, 1.0);
  builder.AddEdge(1, 3, 1.0);
  const CsrGraph csr = builder.Build();
  const CoarsenRun run = RunCoarsen(csr, 1, 17);
  CheckMatchingInvariants(csr, run);
  CheckContractionFaithful(csr, run);
  EXPECT_NE(run.fine_to_coarse[0], run.fine_to_coarse[1]);
}

}  // namespace
}  // namespace gl
