// Construction of the container graph of Sec. III-A.
//
//   * Container graph — one vertex per *active* container, weighted by its
//     demand vector (balance weight: demand normalised against the average
//     server capacity); edges weighted by distinct-flow counts. Replicas
//     (containers sharing a replica_set) get a negative anti-affinity edge
//     so min-cut separates them into different fault domains (Sec. IV-C).
//   * Capacity graph — the paper's second graph (one vertex per server,
//     edges weighted by path length) is never built: its max-cut
//     substructures are exactly the topology subtrees, so Goldilocks walks
//     the Topology directly.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.h"
#include "workload/container.h"

namespace gl {

struct ContainerGraph {
  CsrGraph graph;
  // Vertex index → ContainerId.
  std::vector<ContainerId> vertex_to_container;
  // ContainerId value → vertex index, -1 if inactive.
  std::vector<VertexIndex> container_to_vertex;
  // Replica anti-affinity edges added.
  std::uint64_t anti_affinity_edges = 0;
};

struct ContainerGraphOptions {
  // Edge weight used to push replicas apart; magnitude should exceed any
  // legitimate flow count so the cut always prefers separating replicas.
  double replica_anti_affinity = -1.0e5;
};

ContainerGraph BuildContainerGraph(const Workload& workload,
                                   std::span<const Resource> demands,
                                   std::span<const std::uint8_t> active,
                                   const Resource& reference_capacity,
                                   const ContainerGraphOptions& opts = {});

// Gives a graph that BuildContainerGraph built new demands: each vertex's
// demand and balance weight become what a build from `demands` would set,
// and the totals are re-summed in vertex order. The arcs, which depend only
// on the workload's edges and replica labels and on the active set, stay,
// and so does the graph's structure stamp. Adds to the same counters as a
// build.
void RefreshContainerGraph(ContainerGraph& cg,
                           std::span<const Resource> demands,
                           const Resource& reference_capacity);

}  // namespace gl
