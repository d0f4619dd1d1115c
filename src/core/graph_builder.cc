#include "core/graph_builder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {
namespace {

// Both graph paths count the vertices they weighted and the anti-affinity
// edges the graph holds, so a run's counters do not depend on whether a
// repartition built its graph or refreshed a kept one.
void CountGraph(const ContainerGraph& cg) {
  static obs::Counter& vertices = obs::MetricsRegistry::Global().GetCounter(
      "graph.vertices_built", obs::MetricKind::kDeterministic);
  static obs::Counter& edges = obs::MetricsRegistry::Global().GetCounter(
      "graph.anti_affinity_edges", obs::MetricKind::kDeterministic);
  vertices.Add(static_cast<std::uint64_t>(cg.graph.num_vertices()));
  edges.Add(cg.anti_affinity_edges);
}

}  // namespace

ContainerGraph BuildContainerGraph(const Workload& workload,
                                   std::span<const Resource> demands,
                                   std::span<const std::uint8_t> active,
                                   const Resource& reference_capacity,
                                   const ContainerGraphOptions& opts) {
  GOLDILOCKS_CHECK(demands.size() == workload.containers.size());
  GOLDILOCKS_CHECK(active.size() == workload.containers.size());
  obs::TraceSpan span("graph.build",
                      static_cast<std::int64_t>(workload.containers.size()));
  ContainerGraph cg;
  cg.container_to_vertex.assign(workload.containers.size(), -1);
  CsrGraphBuilder graph;
  graph.Reserve(static_cast<VertexIndex>(workload.containers.size()));
  cg.vertex_to_container.reserve(workload.containers.size());

  for (const auto& c : workload.containers) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (!active[i]) continue;
    const VertexIndex v = graph.AddVertex(
        demands[i], demands[i].NormalizedL1(reference_capacity));
    cg.container_to_vertex[i] = v;
    cg.vertex_to_container.push_back(c.id);
  }

  for (const auto& e : workload.edges) {
    const auto va =
        cg.container_to_vertex[static_cast<std::size_t>(e.a.value())];
    const auto vb =
        cg.container_to_vertex[static_cast<std::size_t>(e.b.value())];
    if (va >= 0 && vb >= 0) graph.AddEdge(va, vb, e.flows);
  }

  // Replica anti-affinity: one negative clique per replica set. Flat
  // (set, vertex) pairs, stably sorted by set id: edge insertion order
  // shapes adjacency lists, which the partitioner's tie-breaking sees — it
  // must not follow hash-bucket order, and the stable sort keeps members in
  // container order within each set, same as the sorted-map snapshot this
  // replaces.
  std::vector<std::pair<GroupId, VertexIndex>> replica_members;
  for (const auto& c : workload.containers) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (!active[i] || !c.replica_set.valid()) continue;
    replica_members.emplace_back(c.replica_set, cg.container_to_vertex[i]);
  }
  std::stable_sort(replica_members.begin(), replica_members.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (std::size_t lo = 0; lo < replica_members.size();) {
    std::size_t hi = lo + 1;
    while (hi < replica_members.size() &&
           replica_members[hi].first == replica_members[lo].first) {
      ++hi;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < hi; ++j) {
        graph.AddEdge(replica_members[i].second, replica_members[j].second,
                      opts.replica_anti_affinity);
        ++cg.anti_affinity_edges;
      }
    }
    lo = hi;
  }
  cg.graph = graph.Build();
  CountGraph(cg);
  return cg;
}

void RefreshContainerGraph(ContainerGraph& cg,
                           std::span<const Resource> demands,
                           const Resource& reference_capacity) {
  GOLDILOCKS_CHECK(demands.size() == cg.container_to_vertex.size());
  obs::TraceSpan span("graph.build",
                      static_cast<std::int64_t>(demands.size()));
  for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
    const Resource& d = demands[static_cast<std::size_t>(
        cg.vertex_to_container[static_cast<std::size_t>(v)].value())];
    cg.graph.SetDemand(v, d);
    cg.graph.SetBalanceWeight(v, d.NormalizedL1(reference_capacity));
  }
  cg.graph.EndColumnRefresh();
  CountGraph(cg);
}

}  // namespace gl
