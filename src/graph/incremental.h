// Incremental graph repartitioning (the paper's Sec. IV-C future work,
// after Ou & Ranka [53]).
//
// Epoch-based scheduling re-partitions the container graph as demands
// drift, but a fresh partition relabels everything and the diff against the
// old placement is a cluster-wide migration storm. Incremental
// repartitioning starts from the previous assignment and repairs it:
//
//   1. vertices new to the graph join the neighbouring group with the
//      highest attachment (or seed fresh groups);
//   2. groups that no longer satisfy the fit predicate shed boundary
//      vertices to fitting neighbour groups — best cut-gain first, smallest
//      demand first among ties — or, when shedding cannot fix them, split;
//   3. a bounded KL-style refinement pass then moves boundary vertices
//      between groups while it improves the cut, within a migration budget.
//
// The result trades a few percent of cut quality for an order of magnitude
// fewer container migrations (see bench_incremental).
#pragma once

#include <span>

#include "graph/partitioner.h"

namespace gl {

struct IncrementalOptions {
  // Fraction of vertices the repair is allowed to move (beyond what
  // feasibility itself forces). The cut-improvement pass stops here.
  double migration_budget_fraction = 0.15;
  // Refinement passes over the boundary after feasibility is restored.
  int refine_passes = 2;
  PartitionOptions partition;
};

struct IncrementalResult {
  std::vector<int> group_of;  // per-vertex group id, compacted to [0, n)
  int num_groups = 0;
  // Vertices whose group differs from `previous` (new vertices excluded).
  int moved_vertices = 0;
  double cut_weight = 0.0;
  // Groups that still violate the fit predicate (singletons too big).
  int infeasible_groups = 0;
};

// `previous[v]` is v's old group id, or -1 for vertices that did not exist
// last epoch. Group ids need not be dense. The fit predicate and capacity
// units follow RecursivePartition's semantics.
IncrementalResult IncrementalRepartition(const CsrGraph& g,
                                         std::span<const int> previous,
                                         const FitPredicate& fits,
                                         const IncrementalOptions& opts);

}  // namespace gl
