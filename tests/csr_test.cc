// Tests for the CSR graph (DESIGN.md §11): the edge-list builder's order
// contract against a naive adjacency-list reference, graph accounting and
// induced subgraphs, arena storage reuse, FM's lazy-deletion queues (Pop is
// Peek then PopTop, which FM uses apart, and both queues share one priority
// table), the FM incremental-gain engine, and the recursion's view contract
// (no InducedSubgraph materialization on the partitioning path).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "graph/fm.h"
#include "graph/partitioner.h"
#include "graph/scratch.h"
#include "obs/metrics.h"

namespace gl {
namespace {

// Random graph with clusters, sparse inter-cluster edges, and a sprinkle of
// negative (anti-affinity) edges. Integer weights so FM's delta updates are
// exact and the equivalence checks below can use exact comparisons.
CsrGraph RandomGraph(int n, std::uint64_t seed, bool with_negative) {
  Rng rng(seed);
  CsrGraphBuilder g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1},
                1.0 + static_cast<double>(rng.NextBelow(3)));
  }
  for (int s = 0; s + 4 <= n; s += 4) {
    for (int i = 1; i < 4; ++i) {
      g.AddEdge(s, s + i, static_cast<double>(1 + rng.NextBelow(9)));
    }
  }
  for (int e = 0; e < n; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a == b) continue;
    double w = static_cast<double>(1 + rng.NextBelow(5));
    if (with_negative && rng.NextBelow(4) == 0) w = -w;
    g.AddEdge(a, b, w);
  }
  return g.Build();
}

std::vector<std::uint8_t> RandomSide(VertexIndex n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n));
  for (auto& s : side) s = static_cast<std::uint8_t>(rng.NextBelow(2));
  return side;
}

// --- Builder order contract --------------------------------------------------

// Naive adjacency-list reference for CsrGraphBuilder's contract: a neighbor
// is appended on its first edge with the vertex, in either orientation, and
// repeats add into that first slot in call order. Self-loops are dropped.
struct NaiveAdjacency {
  std::vector<std::vector<std::pair<VertexIndex, double>>> adj;
  std::size_t edges = 0;

  void AddEdge(VertexIndex u, VertexIndex v, double w) {
    if (u == v) return;
    auto& row_u = adj[static_cast<std::size_t>(u)];
    auto& row_v = adj[static_cast<std::size_t>(v)];
    for (auto& [to, sum] : row_u) {
      if (to != v) continue;
      sum += w;
      for (auto& [back, back_sum] : row_v) {
        if (back == u) back_sum += w;
      }
      return;
    }
    row_u.emplace_back(v, w);
    row_v.emplace_back(u, w);
    ++edges;
  }
};

TEST(CsrGraphTest, BuilderMatchesNaiveAdjacencyReference) {
  constexpr int kN = 32;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    CsrGraphBuilder builder;
    NaiveAdjacency ref;
    ref.adj.resize(kN);
    for (int i = 0; i < kN; ++i) builder.AddVertex({}, 1.0);
    // Targets within ±4 of the source: pairs recur many times in both
    // orientations, offset 0 is a self-loop, and signed non-integer weights
    // make every merged sum depend on its summation order.
    for (int e = 0; e < 8 * kN; ++e) {
      const auto a = static_cast<VertexIndex>(rng.NextBelow(kN));
      const auto b = static_cast<VertexIndex>(
          (static_cast<std::uint64_t>(a) + kN - 4 + rng.NextBelow(9)) % kN);
      const double w = rng.Uniform(-5.0, 10.0);
      builder.AddEdge(a, b, w);
      ref.AddEdge(a, b, w);
    }
    const CsrGraph g = builder.Build();

    ASSERT_EQ(g.num_vertices(), kN);
    ASSERT_EQ(g.num_edges(), ref.edges);
    ASSERT_EQ(g.num_arcs(), 2 * ref.edges);
    for (VertexIndex v = 0; v < kN; ++v) {
      const auto& want = ref.adj[static_cast<std::size_t>(v)];
      // Exact neighbor order and bit-equal weights: tie-breaking in
      // matching and refinement follows row order.
      const auto [to, ws] = g.arc_range(v);
      ASSERT_EQ(to.size(), want.size()) << "v=" << v;
      double degree = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(to[i], want[i].first) << "v=" << v << " i=" << i;
        EXPECT_EQ(ws[i], want[i].second) << "v=" << v << " i=" << i;
        degree += want[i].second;
      }
      EXPECT_EQ(g.degree_weight(v), degree) << "v=" << v;
    }
  }
}

// Streams `g` into `out` through BeginBuild/BeginRow/PushArc/EndBuild.
void StreamCopy(const CsrGraph& g, CsrGraph& out) {
  out.BeginBuild(g.num_vertices(), g.num_arcs());
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    out.BeginRow(g.balance_weight(v));
    const auto [to, ws] = g.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) out.PushArc(to[i], ws[i]);
  }
  out.EndBuild();
}

TEST(CsrGraphTest, ArenaReuseKeepsStorageAndResults) {
  const CsrGraph g = RandomGraph(128, 7, true);
  CsrGraph csr;
  StreamCopy(g, csr);
  const auto side = RandomSide(g.num_vertices(), 99);
  const double first_cut = csr.CutWeight(side);
  EXPECT_DOUBLE_EQ(first_cut, g.CutWeight(side));
  const VertexIndex* storage = csr.arc_data();

  // Clear + rebuild of an equal-or-smaller graph must reuse the arc array
  // (no allocation) and reproduce bit-identical results.
  for (int round = 0; round < 3; ++round) {
    csr.Clear();
    StreamCopy(g, csr);
    EXPECT_EQ(csr.arc_data(), storage);
    EXPECT_DOUBLE_EQ(csr.CutWeight(side), first_cut);
  }
}

TEST(CsrGraphTest, StructureStampFollowsBuildsNotColumns) {
  // Every build issues a new stamp, a copy and a column refresh keep it,
  // and Clear empties it. A refresh re-sums the totals in vertex order, so
  // a refreshed graph's totals equal a build's from the same weights.
  CsrGraph g = RandomGraph(64, 3, true);
  const std::uint64_t stamp = g.structure_stamp();
  EXPECT_NE(stamp, 0u);
  const CsrGraph copy = g;
  EXPECT_EQ(copy.structure_stamp(), stamp);
  EXPECT_NE(RandomGraph(64, 3, true).structure_stamp(), stamp);

  CsrGraphBuilder rebuilt;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const Resource d{.cpu = 3.0 + v, .mem_gb = 0.5, .net_mbps = 0.1 * v};
    const double bw = 0.3 + 0.01 * v;
    g.SetDemand(v, d);
    g.SetBalanceWeight(v, bw);
    rebuilt.AddVertex(d, bw);
  }
  g.EndColumnRefresh();
  EXPECT_EQ(g.structure_stamp(), stamp);
  const CsrGraph fresh = rebuilt.Build();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.total_balance_weight()),
            std::bit_cast<std::uint64_t>(fresh.total_balance_weight()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.total_demand().cpu),
            std::bit_cast<std::uint64_t>(fresh.total_demand().cpu));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.total_demand().net_mbps),
            std::bit_cast<std::uint64_t>(fresh.total_demand().net_mbps));

  CsrGraph streamed;
  StreamCopy(g, streamed);
  EXPECT_NE(streamed.structure_stamp(), 0u);
  EXPECT_NE(streamed.structure_stamp(), stamp);
  streamed.Clear();
  EXPECT_EQ(streamed.structure_stamp(), 0u);
}

TEST(CsrGraphTest, InducedSubgraphRowOrder) {
  CsrGraphBuilder builder;
  for (int i = 0; i < 5; ++i) {
    builder.AddVertex(Resource{.cpu = 10.0 * (i + 1), .mem_gb = 1,
                               .net_mbps = 1},
                      1.0 + i);
  }
  // Row 0 = [4, 2, 3, 1], row 2 = [0, 3], row 3 = [0, 2].
  builder.AddEdge(0, 4, 1.0);
  builder.AddEdge(2, 0, 2.0);
  builder.AddEdge(3, 0, 3.0);
  builder.AddEdge(2, 3, 4.0);
  builder.AddEdge(0, 1, 5.0);
  const CsrGraph g = builder.Build();

  // New ids follow the given order: 3 → 0, 0 → 1, 2 → 2. Edges are re-added
  // walking the new rows in that order, each from its smaller original
  // endpoint: 0–2 (w 2) and 0–3 (w 3) from row 0, then 2–3 (w 4) from row 2.
  const std::vector<VertexIndex> keep{3, 0, 2};
  std::vector<VertexIndex> map;
  const CsrGraph sub = InducedSubgraph(g, keep, &map);
  EXPECT_EQ(map, (std::vector<VertexIndex>{1, -1, 2, 0, -1}));
  ASSERT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(sub.demand(0).cpu, 40.0);
  EXPECT_DOUBLE_EQ(sub.balance_weight(0), 4.0);
  const auto row = [&](VertexIndex v) {
    const auto [to, ws] = sub.arc_range(v);
    std::vector<std::pair<VertexIndex, double>> r;
    for (std::size_t i = 0; i < to.size(); ++i) r.emplace_back(to[i], ws[i]);
    return r;
  };
  using Row = std::vector<std::pair<VertexIndex, double>>;
  EXPECT_EQ(row(0), (Row{{1, 3.0}, {2, 4.0}}));
  EXPECT_EQ(row(1), (Row{{2, 2.0}, {0, 3.0}}));
  EXPECT_EQ(row(2), (Row{{1, 2.0}, {0, 4.0}}));
}

// --- Graph accounting ----------------------------------------------------------

CsrGraph TriangleWithTail() {
  // 0-1-2 triangle (weights 1,2,3) with a tail 2-3 (weight 0.5).
  CsrGraphBuilder g;
  for (int i = 0; i < 4; ++i) {
    g.AddVertex(Resource{.cpu = 10.0 * (i + 1), .mem_gb = 1, .net_mbps = 5},
                1.0);
  }
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(0, 2, 3.0);
  g.AddEdge(2, 3, 0.5);
  return g.Build();
}

TEST(GraphTest, VertexAccounting) {
  const CsrGraph g = TriangleWithTail();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(g.total_demand().cpu, 100.0);
  EXPECT_DOUBLE_EQ(g.total_balance_weight(), 4.0);
  EXPECT_DOUBLE_EQ(g.demand(2).cpu, 30.0);
}

TEST(GraphTest, NeighborsAndDegree) {
  const CsrGraph g = TriangleWithTail();
  EXPECT_EQ(g.arcs(2).size(), 3u);
  EXPECT_DOUBLE_EQ(g.degree_weight(2), 5.5);
  EXPECT_DOUBLE_EQ(g.degree_weight(3), 0.5);
}

TEST(GraphTest, ParallelEdgesMerge) {
  CsrGraphBuilder builder;
  builder.AddVertex({}, 1.0);
  builder.AddVertex({}, 1.0);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(0, 1, 2.5);
  const CsrGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.arc_weights(0)[0], 3.5);
  EXPECT_DOUBLE_EQ(g.arc_weights(1)[0], 3.5);
}

TEST(GraphTest, SelfLoopsIgnored) {
  CsrGraphBuilder builder;
  builder.AddVertex({}, 1.0);
  builder.AddEdge(0, 0, 5.0);
  const CsrGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.arcs(0).empty());
}

TEST(GraphTest, TotalPositiveEdgeWeightSkipsNegative) {
  CsrGraphBuilder builder;
  for (int i = 0; i < 3; ++i) builder.AddVertex({}, 1.0);
  builder.AddEdge(0, 1, 4.0);
  builder.AddEdge(1, 2, -100.0);
  EXPECT_DOUBLE_EQ(builder.Build().total_positive_edge_weight(), 4.0);
}

TEST(GraphTest, CutWeightTwoWay) {
  const CsrGraph g = TriangleWithTail();
  // Cut {0,1} vs {2,3}: edges 1-2 (2) and 0-2 (3) cross → 5.
  std::vector<std::uint8_t> side{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(g.CutWeight(side), 5.0);
}

TEST(GraphTest, CutWeightKWay) {
  const CsrGraph g = TriangleWithTail();
  std::vector<int> group{0, 1, 2, 2};
  // Crossing: 0-1 (1), 1-2 (2), 0-2 (3) → 6; 2-3 internal.
  EXPECT_DOUBLE_EQ(g.CutWeightKWay(group), 6.0);
}

TEST(GraphTest, InducedSubgraph) {
  const CsrGraph g = TriangleWithTail();
  std::vector<VertexIndex> keep{0, 1, 2};
  std::vector<VertexIndex> map;
  const CsrGraph sub = InducedSubgraph(g, keep, &map);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 3u);  // triangle preserved, tail dropped
  EXPECT_EQ(map[3], -1);
  EXPECT_DOUBLE_EQ(sub.total_demand().cpu, 60.0);
}

TEST(GraphTest, InducedSubgraphPreservesWeights) {
  const CsrGraph g = TriangleWithTail();
  std::vector<VertexIndex> keep{0, 2};
  const CsrGraph sub = InducedSubgraph(g, keep);
  ASSERT_EQ(sub.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(sub.arc_weights(0)[0], 3.0);
}

TEST(GraphTest, EmptyGraph) {
  const CsrGraph g = CsrGraphBuilder().Build();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_positive_edge_weight(), 0.0);
}

// --- FmQueues: two lazy-deletion max-heaps over one priority table ---------

TEST(LazyMaxHeapTest, PopsMaxAndSkipsStaleEntries) {
  FmQueues heap;
  heap.Reset(4);
  heap.Push(0, 0, 1.0);
  heap.Push(0, 1, 5.0);
  heap.Push(0, 2, 3.0);
  // Re-push vertex 1 with a lower priority: the old 5.0 entry is stale and
  // must be skipped even though it sits on top of the heap.
  heap.Push(0, 1, 2.0);

  VertexIndex v = -1;
  double p = 0.0;
  ASSERT_TRUE(heap.Pop(0, &v, &p));
  EXPECT_EQ(v, 2);
  EXPECT_DOUBLE_EQ(p, 3.0);
  ASSERT_TRUE(heap.Pop(0, &v, &p));
  EXPECT_EQ(v, 1);
  EXPECT_DOUBLE_EQ(p, 2.0);
  ASSERT_TRUE(heap.Pop(0, &v, &p));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(heap.Pop(0, &v, &p));  // only stale entries remain
}

TEST(LazyMaxHeapTest, InvalidateRemovesAndResetReuses) {
  FmQueues heap;
  heap.Reset(3);
  heap.Push(0, 0, 10.0);
  heap.Push(0, 1, 20.0);
  EXPECT_TRUE(heap.Contains(1));
  heap.Invalidate(1);
  EXPECT_FALSE(heap.Contains(1));

  VertexIndex v = -1;
  double p = 0.0;
  ASSERT_TRUE(heap.Pop(0, &v, &p));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(heap.Pop(0, &v, &p));

  heap.Reset(3);  // reused storage must start empty
  EXPECT_FALSE(heap.Pop(0, &v, &p));
}

TEST(LazyMaxHeapTest, PeekDiscardsStaleTopsAndConsumesNothing) {
  FmQueues heap;
  heap.Reset(4);
  heap.Push(0, 0, 1.0);
  heap.Push(0, 1, 5.0);
  heap.Push(0, 2, 3.0);
  heap.Push(0, 1, 2.0);  // the 5.0 entry on top is now stale

  VertexIndex v = -1;
  double p = 0.0;
  ASSERT_TRUE(heap.Peek(0, &v, &p));
  EXPECT_EQ(v, 2);
  EXPECT_DOUBLE_EQ(p, 3.0);
  // A second Peek sees the same entry: nothing was consumed.
  ASSERT_TRUE(heap.Peek(0, &v, &p));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(heap.Contains(2));

  // PopTop consumes exactly the peeked entry and nothing else.
  heap.PopTop(0);
  EXPECT_FALSE(heap.Contains(2));
  EXPECT_TRUE(heap.Contains(0));
  EXPECT_TRUE(heap.Contains(1));
  ASSERT_TRUE(heap.Peek(0, &v, &p));
  EXPECT_EQ(v, 1);
  EXPECT_DOUBLE_EQ(p, 2.0);
  heap.PopTop(0);
  ASSERT_TRUE(heap.Peek(0, &v, &p));
  EXPECT_EQ(v, 0);
  heap.Invalidate(0);
  EXPECT_FALSE(heap.Peek(0, &v, &p));  // only stale entries remain
}

TEST(LazyMaxHeapTest, PopEqualsPeekThenPopTopUnderTies) {
  // One random stream of pushes, invalidations and pops over few distinct
  // priorities, so ties are everywhere. `a` pops with Pop; `b` peeks one to
  // three times before each PopTop. Both must pop the same vertices in the
  // same order, and each pop must take a live entry of the highest live
  // priority.
  constexpr int kN = 40;
  Rng rng(0x5eedu);
  FmQueues a;
  FmQueues b;
  a.Reset(kN);
  b.Reset(kN);
  std::vector<double> live(kN, -1.0);  // -1 = absent
  int pops = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.NextBelow(10);
    const auto v = static_cast<VertexIndex>(rng.NextBelow(kN));
    if (op < 5) {
      const double prio = static_cast<double>(rng.NextBelow(4));
      a.Push(0, v, prio);
      b.Push(0, v, prio);
      live[static_cast<std::size_t>(v)] = prio;
    } else if (op < 6) {
      a.Invalidate(v);
      b.Invalidate(v);
      live[static_cast<std::size_t>(v)] = -1.0;
    } else {
      VertexIndex va = -1;
      VertexIndex vb = -1;
      double pa = 0.0;
      double pb = 0.0;
      const bool got_a = a.Pop(0, &va, &pa);
      bool got_b = false;
      const auto peeks = 1 + rng.NextBelow(3);
      for (std::uint64_t k = 0; k < peeks; ++k) got_b = b.Peek(0, &vb, &pb);
      if (got_b) b.PopTop(0);
      ASSERT_EQ(got_a, got_b);
      const double best = *std::max_element(live.begin(), live.end());
      if (!got_a) {
        EXPECT_EQ(best, -1.0);
        continue;
      }
      ++pops;
      ASSERT_EQ(va, vb);
      ASSERT_EQ(pa, pb);
      EXPECT_EQ(live[static_cast<std::size_t>(va)], pa);
      EXPECT_EQ(pa, best);
      live[static_cast<std::size_t>(va)] = -1.0;
    }
  }
  EXPECT_GT(pops, 1000);
}

TEST(LazyMaxHeapTest, BothQueuesShareOnePriorityTable) {
  FmQueues queues;
  queues.Reset(3);
  queues.Push(0, 0, 4.0);
  queues.Push(0, 0, 6.0);  // the 4.0 entry is stale already
  queues.Push(0, 1, 5.0);
  queues.Push(1, 2, 1.0);

  VertexIndex v = -1;
  double p = 0.0;
  ASSERT_TRUE(queues.Peek(0, &v, &p));
  EXPECT_EQ(v, 0);
  queues.PopTop(0);
  EXPECT_FALSE(queues.Contains(0));  // popped from queue 0: absent from both

  // Vertex 0 moves to queue 1 at a priority none of its queue-0 entries
  // carries: they stay stale, so queue 0 holds only vertex 1.
  queues.Push(1, 0, 3.0);
  EXPECT_TRUE(queues.Contains(0));
  ASSERT_TRUE(queues.Pop(0, &v, &p));
  EXPECT_EQ(v, 1);
  EXPECT_DOUBLE_EQ(p, 5.0);
  EXPECT_FALSE(queues.Pop(0, &v, &p));
  ASSERT_TRUE(queues.Pop(1, &v, &p));
  EXPECT_EQ(v, 0);
  EXPECT_DOUBLE_EQ(p, 3.0);
  ASSERT_TRUE(queues.Pop(1, &v, &p));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(queues.Pop(1, &v, &p));
}

// --- FmEngine: incremental gains -------------------------------------------

TEST(FmEngineTest, DeltaGainsMatchFullRecompute) {
  const CsrGraph csr = RandomGraph(48, 11, true);
  auto side = RandomSide(csr.num_vertices(), 3);
  std::vector<double> gain;
  FmEngine engine;
  engine.Attach(csr, &side, &gain);

  Rng rng(17);
  for (int move = 0; move < 64; ++move) {
    const auto v = static_cast<VertexIndex>(
        rng.NextBelow(static_cast<std::size_t>(csr.num_vertices())));
    engine.Flip(v);
    for (VertexIndex u = 0; u < csr.num_vertices(); ++u) {
      // Integer weights: delta maintenance must be exactly the from-scratch
      // value, not just close.
      ASSERT_DOUBLE_EQ(engine.gain(u), engine.RecomputeGain(u))
          << "after move " << move << " vertex " << u;
    }
  }
}

TEST(FmEngineTest, ReverseFlipsRollBackToInitialState) {
  const CsrGraph csr = RandomGraph(48, 23, true);
  auto side = RandomSide(csr.num_vertices(), 5);
  const auto side0 = side;
  std::vector<double> gain;
  FmEngine engine;
  engine.Attach(csr, &side, &gain);
  const std::vector<double> gain0 = gain;

  Rng rng(29);
  std::vector<VertexIndex> moves;
  for (int i = 0; i < 40; ++i) {
    moves.push_back(static_cast<VertexIndex>(
        rng.NextBelow(static_cast<std::size_t>(csr.num_vertices()))));
    engine.Flip(moves.back());
  }
  // Reverse-order flips must restore sides and (with integer weights) every
  // gain exactly — this is what makes FM's rollback-to-best-prefix free of
  // an O(arcs) recompute.
  for (std::size_t i = moves.size(); i > 0; --i) engine.Flip(moves[i - 1]);

  EXPECT_EQ(side, side0);
  for (VertexIndex v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(gain[static_cast<std::size_t>(v)],
                     gain0[static_cast<std::size_t>(v)]);
  }
}

TEST(FmEngineTest, InitialCutMatchesCutWeight) {
  for (std::uint64_t seed = 31; seed <= 35; ++seed) {
    const CsrGraph csr = RandomGraph(64, seed, true);
    auto side = RandomSide(csr.num_vertices(), seed);
    std::vector<double> gain;
    FmEngine engine;
    engine.Attach(csr, &side, &gain);
    EXPECT_NEAR(engine.initial_cut(), csr.CutWeight(side), 1e-9);
  }
}

// --- GroupAccumulator -------------------------------------------------------

TEST(GroupAccumulatorTest, SumsPerIdInFirstTouchOrder) {
  GroupAccumulator acc;
  acc.Reset(8);
  acc.Add(5, 1.5);
  acc.Add(2, 1.0);
  acc.Add(5, 0.5);
  acc.Add(7, -2.0);

  ASSERT_EQ(acc.touched().size(), 3u);
  EXPECT_EQ(acc.touched()[0], 5);
  EXPECT_EQ(acc.touched()[1], 2);
  EXPECT_EQ(acc.touched()[2], 7);
  EXPECT_DOUBLE_EQ(acc.Get(5), 2.0);
  EXPECT_DOUBLE_EQ(acc.Get(2), 1.0);
  EXPECT_DOUBLE_EQ(acc.Get(7), -2.0);
  EXPECT_DOUBLE_EQ(acc.Get(0), 0.0);  // untouched reads as zero

  acc.Reset(8);  // O(1) epoch bump must forget everything
  EXPECT_TRUE(acc.touched().empty());
  EXPECT_DOUBLE_EQ(acc.Get(5), 0.0);
}

TEST(GroupAccumulatorTest, EpochWrapNeverResurrectsOldSums) {
  GroupAccumulator acc;
  acc.Reset(4);     // epoch 1
  acc.Add(2, 5.0);  // stamp[2] = 1
  acc.Add(0, 3.0);

  // Drive the counter to its max; the next Reset wraps to 0 and must clear
  // every stamp — otherwise the post-wrap epoch value 1 would alias the
  // stamps written in the original epoch 1 and Get(2) would read 5.0.
  acc.set_epoch_for_test(0xFFFFFFFFu);
  acc.Reset(4);
  EXPECT_TRUE(acc.touched().empty());
  EXPECT_DOUBLE_EQ(acc.Get(2), 0.0);
  EXPECT_DOUBLE_EQ(acc.Get(0), 0.0);

  // The accumulator keeps working normally after the wrap.
  acc.Add(2, 1.0);
  acc.Add(2, 0.5);
  EXPECT_DOUBLE_EQ(acc.Get(2), 1.5);
  ASSERT_EQ(acc.touched().size(), 1u);
  EXPECT_EQ(acc.touched()[0], 2);

  // And the epoch after the wrap still invalidates cleanly.
  acc.Reset(4);
  EXPECT_DOUBLE_EQ(acc.Get(2), 0.0);
}

// --- Recursion over views ---------------------------------------------------

TEST(CsrRecursionTest, RecursivePartitionBuildsNoInducedSubgraphs) {
  auto& builds = obs::MetricsRegistry::Global().GetCounter(
      "graph.induced_subgraph_builds", obs::MetricKind::kDeterministic);
  auto& views = obs::MetricsRegistry::Global().GetCounter(
      "partition.subgraph_views", obs::MetricKind::kDeterministic);

  const CsrGraph g = RandomGraph(400, 41, true);
  const Resource ceiling{.cpu = 100, .mem_gb = 10, .net_mbps = 10};
  const auto builds_before = builds.value();
  const auto views_before = views.value();
  const auto r = RecursivePartition(
      g, [&](const Resource& d) { return d.FitsIn(ceiling); }, {});
  EXPECT_GT(r.num_groups, 1);

  // The recursion must run entirely on CSR views: one per split, zero
  // induced subgraphs materialized.
  EXPECT_EQ(builds.value() - builds_before, 0u);
  EXPECT_GT(views.value() - views_before, 0u);
}

}  // namespace
}  // namespace gl
