// Weighted undirected graph in flat compressed-sparse-row form (DESIGN.md
// §11) — the one graph type, used for both graphs of Sec. III-A.
//
// Vertices carry a scalar balance weight (the partitioner's balance
// constraint) and, when built by CsrGraphBuilder, the Resource demand vector
// of the paper's multi-dimensional vertex weight. Edges carry a double
// weight: flow counts for the container graph, path lengths for the
// capacity graph. Edge weights may be *negative* to express replica
// anti-affinity (Sec. IV-C): min-cut then prefers to separate the endpoints.
//
// Storage is one offsets array, one target array, one weight array —
// neighbor scans are contiguous streams, and all storage is reusable, so a
// warm scratch arena (graph/scratch.h) rebuilds coarse levels and subgraph
// views without touching the allocator. An "arc" is one direction of an
// undirected edge; every edge appears in both endpoint rows.
//
// Three ways to fill one:
//   * CsrGraphBuilder — vertices and edges in any order, for graphs built
//     from data (container and capacity graphs, induced subgraphs, tests);
//   * streaming BeginBuild/BeginRow/PushArc/EndBuild — rows in index order
//     (range views in the recursion);
//   * indexed BeginIndexedBuild/Set*/EndIndexedBuild — rows filled
//     concurrently (parallel contraction, graph/coarsen.cc).
// Only the builder fills demands. Coarse levels and range views leave the
// demand column empty: the recursion sums the original graph's demands per
// index range when it emits groups.
//
// Every build issues the graph a new structure stamp, unique in the
// process; a column refresh (SetBalanceWeight/SetDemand/EndColumnRefresh)
// changes vertex weights and keeps it. Equal stamps therefore mean equal
// rows, targets and arc weights, which is what lets work that reads only
// those (the root bisection's coarsening, PartitionMemo) be kept for the
// next call on the same graph.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/resource.h"
#include "obs/memory.h"

namespace gl {

using VertexIndex = std::int32_t;

class CsrGraph {
 public:
  CsrGraph() = default;

  // Drops the contents but keeps the capacity (arena reuse).
  void Clear() {
    row_.clear();
    col_.clear();
    w_.clear();
    balance_.clear();
    deg_.clear();
    demand_.clear();
    total_balance_ = 0.0;
    total_demand_ = {};
    structure_stamp_ = 0;
  }

  // Streaming build: BeginBuild, then one BeginRow per vertex in index
  // order with its PushArc calls, then EndBuild. The expected sizes are
  // reservation hints, not limits.
  void BeginBuild(VertexIndex expected_vertices, std::size_t expected_arcs) {
    Clear();
    const auto nv = static_cast<std::size_t>(
        expected_vertices > 0 ? expected_vertices : 0);
    row_.reserve(nv + 1);
    balance_.reserve(nv);
    col_.reserve(expected_arcs);
    w_.reserve(expected_arcs);
    row_.push_back(0);
  }

  VertexIndex BeginRow(double balance_weight) {
    if (!balance_.empty()) row_.push_back(col_.size());  // close previous row
    balance_.push_back(balance_weight);
    GOLDILOCKS_CHECK(balance_.size() <=
                     static_cast<std::size_t>(
                         std::numeric_limits<VertexIndex>::max()));
    total_balance_ += balance_weight;
    return static_cast<VertexIndex>(balance_.size()) - 1;
  }

  void PushArc(VertexIndex to, double weight) {
    col_.push_back(to);
    w_.push_back(weight);
  }

  void EndBuild() {
    if (!balance_.empty()) row_.push_back(col_.size());  // close last row
    GOLDILOCKS_CHECK_EQ(row_.size(), balance_.size() + 1);
    // Cache signed degrees once per build: refinement reads degree_weight
    // per vertex per pass, and summing here in row order gives the same
    // value an on-the-fly scan would.
    deg_.assign(balance_.size(), 0.0);
    for (std::size_t v = 0; v < balance_.size(); ++v) {
      double s = 0.0;
      for (std::size_t i = row_[v]; i < row_[v + 1]; ++i) s += w_[i];
      deg_[v] = s;
    }
    structure_stamp_ = NextStructureStamp();
  }

  // Indexed (random-access) build for parallel writers (graph/coarsen.cc):
  // size every array up front, let concurrent tasks fill disjoint rows, then
  // finalize. The caller supplies exact offsets (row v owns
  // [offset(v), offset(v+1)) of the arc arrays, with offset(n) = num_arcs
  // pre-set here) plus each row's balance weight and signed degree — the
  // degree is summed by the writer in its row's emission order, which is the
  // same order EndBuild's cache scan would visit. Rows are disjoint, so
  // concurrent fills need no synchronization; EndIndexedBuild re-derives the
  // total balance weight serially in row order (one canonical summation
  // order at every thread count, DESIGN.md §9).
  void BeginIndexedBuild(VertexIndex expected_vertices, std::size_t num_arcs) {
    Clear();
    const auto nv = static_cast<std::size_t>(
        expected_vertices > 0 ? expected_vertices : 0);
    GOLDILOCKS_CHECK(nv <= static_cast<std::size_t>(
                               std::numeric_limits<VertexIndex>::max()));
    row_.assign(nv + 1, num_arcs);
    col_.resize(num_arcs);
    w_.resize(num_arcs);
    balance_.assign(nv, 0.0);
    deg_.assign(nv, 0.0);
  }

  void SetRowOffset(VertexIndex v, std::size_t offset) {
    row_[Checked(v)] = offset;
  }

  void SetVertex(VertexIndex v, double balance_weight, double degree_weight) {
    const auto s = Checked(v);
    balance_[s] = balance_weight;
    deg_[s] = degree_weight;
  }

  void SetArc(std::size_t slot, VertexIndex to, double weight) {
    GOLDILOCKS_CHECK_LT(slot, col_.size());
    col_[slot] = to;
    w_[slot] = weight;
  }

  void EndIndexedBuild() {
    total_balance_ = 0.0;
    for (std::size_t v = 0; v < balance_.size(); ++v) {
      GOLDILOCKS_CHECK(row_[v] <= row_[v + 1]);  // offsets must be monotone
      total_balance_ += balance_[v];
    }
    structure_stamp_ = NextStructureStamp();
  }

  // Column refresh of a built graph: vertex weights change, arcs do not.
  // Set the new weights, then EndColumnRefresh re-sums both totals in
  // vertex order, the order every build sums them in. The structure stamp
  // stays.
  void SetBalanceWeight(VertexIndex v, double balance_weight) {
    balance_[Checked(v)] = balance_weight;
  }
  void SetDemand(VertexIndex v, const Resource& demand) {
    const auto s = Checked(v);
    GOLDILOCKS_CHECK_LT(s, demand_.size());
    demand_[s] = demand;
  }
  void EndColumnRefresh() {
    total_balance_ = 0.0;
    for (const double b : balance_) total_balance_ += b;
    total_demand_ = {};
    for (const Resource& d : demand_) total_demand_ += d;
  }

  // Identity of the rows, targets and arc weights: issued by every build,
  // kept by a column refresh and by copies; 0 on a graph never built.
  [[nodiscard]] std::uint64_t structure_stamp() const {
    return structure_stamp_;
  }

  [[nodiscard]] VertexIndex num_vertices() const {
    return static_cast<VertexIndex>(balance_.size());
  }
  [[nodiscard]] std::size_t num_arcs() const { return col_.size(); }
  // Undirected edges: every edge is two arcs and no row holds a self-loop.
  [[nodiscard]] std::size_t num_edges() const { return col_.size() / 2; }

  [[nodiscard]] std::span<const VertexIndex> arcs(VertexIndex v) const {
    const auto s = Checked(v);
    return {col_.data() + row_[s], row_[s + 1] - row_[s]};
  }
  [[nodiscard]] std::span<const double> arc_weights(VertexIndex v) const {
    const auto s = Checked(v);
    return {w_.data() + row_[s], row_[s + 1] - row_[s]};
  }

  // Both row views through a single bounds check, for inner loops that need
  // targets and weights together.
  struct ArcRange {
    std::span<const VertexIndex> to;
    std::span<const double> w;
  };
  [[nodiscard]] ArcRange arc_range(VertexIndex v) const {
    const auto s = Checked(v);
    const auto len = row_[s + 1] - row_[s];
    return {{col_.data() + row_[s], len}, {w_.data() + row_[s], len}};
  }

  [[nodiscard]] double balance_weight(VertexIndex v) const {
    return balance_[Checked(v)];
  }
  [[nodiscard]] double total_balance_weight() const { return total_balance_; }

  // Resource demand; only graphs from CsrGraphBuilder carry demands.
  [[nodiscard]] const Resource& demand(VertexIndex v) const {
    const auto s = Checked(v);
    GOLDILOCKS_CHECK_LT(s, demand_.size());
    return demand_[s];
  }
  [[nodiscard]] Resource total_demand() const { return total_demand_; }

  // Signed degree (sum of incident arc weights), cached at EndBuild.
  [[nodiscard]] double degree_weight(VertexIndex v) const {
    return deg_[Checked(v)];
  }

  // Sum of positive edge weights; the min-cut objective upper bound.
  [[nodiscard]] double total_positive_edge_weight() const {
    double s = 0.0;
    for (VertexIndex v = 0; v < num_vertices(); ++v) {
      const auto [to, ws] = arc_range(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (to[i] > v && ws[i] > 0.0) s += ws[i];
      }
    }
    return s;
  }

  // Cut weight of a 2-way assignment (side[v] in {0,1}); iterates arcs with
  // to > v so each undirected edge contributes once, in row order.
  [[nodiscard]] double CutWeight(std::span<const std::uint8_t> side) const {
    return CrossingWeight(side);
  }

  // Cut weight of a k-way assignment (sum of weights of edges whose
  // endpoints are in different groups), in the same order as CutWeight.
  [[nodiscard]] double CutWeightKWay(std::span<const int> group) const {
    return CrossingWeight(group);
  }

  // Storage identity, for arena-reuse tests: the arc array's address only
  // changes when a rebuild outgrows the retained capacity.
  [[nodiscard]] const VertexIndex* arc_data() const { return col_.data(); }

  // Retained footprint in bytes (capacities, not sizes): monotone across
  // Clear()/rebuild reuse. Memory observability only (obs/memory.h) —
  // never a decision input.
  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(row_) + obs::VectorFootprintBytes(col_) +
           obs::VectorFootprintBytes(w_) +
           obs::VectorFootprintBytes(balance_) +
           obs::VectorFootprintBytes(deg_) +
           obs::VectorFootprintBytes(demand_);
  }

 private:
  friend class CsrGraphBuilder;  // merges repeats, fills the demand column

  // Process-wide source of structure stamps, never 0.
  static std::uint64_t NextStructureStamp();

  [[nodiscard]] std::size_t Checked(VertexIndex v) const {
    GOLDILOCKS_CHECK_GE(v, 0);
    GOLDILOCKS_CHECK_LT(v, num_vertices());
    return static_cast<std::size_t>(v);
  }

  template <typename Label>
  [[nodiscard]] double CrossingWeight(std::span<const Label> label) const {
    GOLDILOCKS_CHECK_EQ(label.size(), balance_.size());
    double cut = 0.0;
    for (VertexIndex v = 0; v < num_vertices(); ++v) {
      const auto [to, ws] = arc_range(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (to[i] > v && label[static_cast<std::size_t>(v)] !=
                             label[static_cast<std::size_t>(to[i])]) {
          cut += ws[i];
        }
      }
    }
    return cut;
  }

  std::vector<std::size_t> row_;  // n+1 offsets into col_/w_ once built
  std::vector<VertexIndex> col_;
  std::vector<double> w_;
  std::vector<double> balance_;
  std::vector<double> deg_;  // per-vertex signed degree, filled by EndBuild
  std::vector<Resource> demand_;  // per vertex, or empty (see header)
  double total_balance_ = 0.0;
  Resource total_demand_;
  std::uint64_t structure_stamp_ = 0;
};

// Edge-list builder: add vertices and edges in any order, then Build() once.
//
// Order contract: row v lists its neighbors in the order their edge with v
// was *first* added, in either orientation. A repeated edge merges into that
// first slot, its weights summed left to right in call order. Self-loops are
// dropped. Matching and FM break ties in adjacency order, so the partition
// (and with it cut, power and TCT) depends on this order: Build() must never
// sort rows by target.
class CsrGraphBuilder {
 public:
  // Pre-sizes the per-vertex arrays for `expected_vertices` AddVertex calls.
  void Reserve(VertexIndex expected_vertices);

  // Adds a vertex and returns its index. `balance_weight` defaults to 1
  // (uniform vertices); callers with multi-resource demands should pass a
  // normalized scalar (see NormalizedL1).
  VertexIndex AddVertex(const Resource& demand,
                        double balance_weight GL_UNITS(dimensionless) = 1.0);

  // Adds an undirected edge u–v with the given weight. Parallel edges are
  // merged (weights summed). Self-loops are ignored.
  void AddEdge(VertexIndex u, VertexIndex v, double weight);

  [[nodiscard]] VertexIndex num_vertices() const {
    return static_cast<VertexIndex>(balance_.size());
  }

  // Buckets the arcs by row, merges repeats per the order contract and
  // emits the CSR. Leaves the builder empty.
  [[nodiscard]] CsrGraph Build();

 private:
  struct Edge {
    VertexIndex u = -1;
    VertexIndex v = -1;
    double w = 0.0;
  };

  std::vector<Resource> demand_;
  std::vector<double> balance_;
  Resource total_demand_;
  std::vector<Edge> edges_;  // call order, self-loops already dropped
};

// Induced subgraph of a builder-made graph over `vertices` (new index i is
// vertices[i]); `old_to_new` (optional out) maps original index → new index
// or -1. Edges are re-added in row order of `vertices`, each once from its
// smaller original endpoint, so the result is a pure function of the input
// order. Goes through the builder: the partitioner's recursion filters each
// child's view from its parent's instead.
[[nodiscard]] CsrGraph InducedSubgraph(
    const CsrGraph& g, std::span<const VertexIndex> vertices,
    std::vector<VertexIndex>* old_to_new = nullptr);

}  // namespace gl
