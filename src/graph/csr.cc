#include "graph/csr.h"

#include <atomic>
#include <utility>

#include "obs/metrics.h"

namespace gl {

std::uint64_t CsrGraph::NextStructureStamp() {
  // Behind an accessor, so no mutable state sits at namespace scope
  // (gl_analyze GL007). Stamps are compared for equality only, never
  // hashed, so the order threads draw them in is unobservable.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void CsrGraphBuilder::Reserve(VertexIndex expected_vertices) {
  const auto n = static_cast<std::size_t>(
      expected_vertices > 0 ? expected_vertices : 0);
  demand_.reserve(n);
  balance_.reserve(n);
}

VertexIndex CsrGraphBuilder::AddVertex(
    const Resource& demand, double balance_weight GL_UNITS(dimensionless)) {
  demand_.push_back(demand);
  balance_.push_back(balance_weight);
  GOLDILOCKS_CHECK(balance_.size() <=
                   static_cast<std::size_t>(
                       std::numeric_limits<VertexIndex>::max()));
  total_demand_ += demand;
  return num_vertices() - 1;
}

void CsrGraphBuilder::AddEdge(VertexIndex u, VertexIndex v, double weight) {
  if (u == v) return;
  GOLDILOCKS_CHECK_GE(u, 0);
  GOLDILOCKS_CHECK_LT(u, num_vertices());
  GOLDILOCKS_CHECK_GE(v, 0);
  GOLDILOCKS_CHECK_LT(v, num_vertices());
  edges_.push_back({u, v, weight});
}

CsrGraph CsrGraphBuilder::Build() {
  const auto n = balance_.size();

  // Stable counting sort of both arcs of every edge by source row: each
  // row's arcs land in call order.
  std::vector<std::size_t> start(n + 1, 0);
  for (const auto& e : edges_) {
    ++start[static_cast<std::size_t>(e.u) + 1];
    ++start[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) start[v + 1] += start[v];
  std::vector<VertexIndex> to(start[n]);
  std::vector<double> w(start[n]);
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (const auto& e : edges_) {
      auto& fu = fill[static_cast<std::size_t>(e.u)];
      to[fu] = e.v;
      w[fu++] = e.w;
      auto& fv = fill[static_cast<std::size_t>(e.v)];
      to[fv] = e.u;
      w[fv++] = e.w;
    }
  }
  edges_ = {};

  // Emit row by row, merging each repeat into the arc its first occurrence
  // pushed: slot[t] is that arc for target t while seen[t] == v.
  std::vector<std::size_t> slot(n);
  std::vector<VertexIndex> seen(n, -1);
  CsrGraph g;
  g.BeginBuild(num_vertices(), to.size());
  for (std::size_t v = 0; v < n; ++v) {
    g.BeginRow(balance_[v]);
    for (std::size_t i = start[v]; i < start[v + 1]; ++i) {
      const auto t = static_cast<std::size_t>(to[i]);
      if (seen[t] == static_cast<VertexIndex>(v)) {
        g.w_[slot[t]] += w[i];
        continue;
      }
      seen[t] = static_cast<VertexIndex>(v);
      slot[t] = g.num_arcs();
      g.PushArc(to[i], w[i]);
    }
  }
  g.EndBuild();
  g.demand_ = std::move(demand_);
  g.total_demand_ = total_demand_;
  *this = {};
  return g;
}

CsrGraph InducedSubgraph(const CsrGraph& g,
                         std::span<const VertexIndex> vertices,
                         std::vector<VertexIndex>* old_to_new) {
  // The partitioner's recursion works on CSR views filtered from the
  // parent's and must never land here; the scratch-arena test pins this counter at zero across
  // RecursivePartition (DESIGN.md §11).
  static obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
      "graph.induced_subgraph_builds", obs::MetricKind::kDeterministic);
  builds.Increment();
  std::vector<VertexIndex> map(static_cast<std::size_t>(g.num_vertices()), -1);
  CsrGraphBuilder sub;
  GOLDILOCKS_CHECK(vertices.size() <=
                   static_cast<std::size_t>(
                       std::numeric_limits<VertexIndex>::max()));
  sub.Reserve(static_cast<VertexIndex>(vertices.size()));
  for (const auto v : vertices) {
    const Resource& demand = g.demand(v);  // range-checks v
    map[static_cast<std::size_t>(v)] =
        sub.AddVertex(demand, g.balance_weight(v));
  }
  for (const auto v : vertices) {
    const auto [to, ws] = g.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto nv = map[static_cast<std::size_t>(to[i])];
      if (nv >= 0 && to[i] > v) {
        sub.AddEdge(map[static_cast<std::size_t>(v)], nv, ws[i]);
      }
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return sub.Build();
}

}  // namespace gl
