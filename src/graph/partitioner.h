// Multilevel balanced min-cut graph partitioning.
//
// This is the from-scratch replacement for METIS [23] used by the paper: the
// same multilevel scheme (heavy-edge-matching coarsening → greedy-graph-
// growing initial partition → Fiduccia–Mattheyses refinement during
// uncoarsening) with a balance constraint on scalar vertex weights.
//
// Three entry points:
//   * Bisect            — one balanced 2-way split (the paper's building
//                         block, Fig. 6).
//   * KWayPartition     — k balanced groups via recursive bisection with
//                         proportional targets (the Fig. 7 visualisations
//                         and the partitioner scale bench; no placement
//                         path calls it).
//   * RecursivePartition— the paper's Sec. III-B loop: keep bisecting until
//                         every group's aggregate Resource demand satisfies a
//                         caller-provided fit predicate (e.g. "fits in one
//                         server at 70% utilization"). n comes out of the
//                         algorithm, not in.
//
// Negative edge weights (replica anti-affinity, Sec. IV-C) are supported:
// they are never contracted during coarsening and the min-cut objective
// actively prefers to separate their endpoints.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.h"

namespace gl {

struct PartitionOptions {
  // Allowed imbalance: a side may carry up to (1 + balance_tolerance) times
  // its proportional share of the total balance weight (METIS' ubfactor).
  double balance_tolerance = 0.10;
  // Coarsening stops when the graph has at most this many vertices.
  int coarsen_target = 96;
  // Independent greedy-graph-growing attempts on the coarsest graph.
  int initial_trials = 8;
  // Maximum FM passes per level (each pass ends early when it stalls).
  int refine_passes = 8;
  // Consecutive non-improving FM moves tolerated before ending a pass.
  int fm_stall_limit = 256;
  // Direct k-way refinement passes run after recursive bisection in
  // KWayPartition (0 = off).
  int kway_refine_passes = 2;
  // Independent FM trials per uncoarsening level on graphs of at least
  // parallel_min_vertices vertices (1 = classic single-stream FM). Each
  // trial gets the full refine_passes budget, runs from a keyed per-trial
  // sub-stream, and the trials fold to one canonical winner
  // (graph/refine.h), so the result is a pure function of the options —
  // identical whether the trials ran concurrently or back-to-back.
  int fm_trials = 4;
  // Below this vertex count a level is refined single-stream and coarsened
  // without the pool: tiny levels are cheaper serial than synchronized.
  // Part of the deterministic contract (the gate reads the problem size,
  // never the thread count), so changing it changes partitions.
  int parallel_min_vertices = 4096;
  std::uint64_t seed = 0x5eed;
  // Worker threads for RecursivePartition's fan-out (1 = serial). Results
  // are bit-identical for every value: sub-partitions are seeded from the
  // recursion path and assembled in position (preorder) order.
  int threads = 1;
};

struct Bisection {
  std::vector<std::uint8_t> side;  // per-vertex: 0 or 1
  double cut_weight = 0.0;
  double side_weight[2] = {0.0, 0.0};  // balance weight per side
  bool balanced = false;               // within tolerance of the target
};

// Balanced 2-way partition. `target_fraction` is the share of the total
// balance weight that side 0 should receive (0.5 for an even split; other
// values drive non-power-of-two k-way splits).
Bisection Bisect(const CsrGraph& g, const PartitionOptions& opts,
                 double target_fraction = 0.5);

struct KWayResult {
  std::vector<int> group_of;  // per-vertex group id in [0, k)
  int num_groups = 0;
  double cut_weight = 0.0;  // total weight of inter-group edges
};

// Exactly k groups with proportional balance. Recursive bisection plus,
// when `opts.kway_refine_passes > 0`, a direct k-way boundary refinement
// (greedy best-gain moves across any group pair — the kMETIS idea) that
// repairs the cuts recursive bisection cannot see across its sub-problems.
KWayResult KWayPartition(const CsrGraph& g, int k,
                         const PartitionOptions& opts);

// Direct k-way refinement: improves `group_of` in place by moving boundary
// vertices to the neighbouring group with the highest positive cut gain,
// subject to the balance tolerance. Returns the cut improvement (≥ 0).
double RefineKWay(const CsrGraph& g, std::vector<int>& group_of, int k,
                  const PartitionOptions& opts);

// Predicate deciding whether a container group with the given aggregate
// demand can stop splitting (equation (2) of the paper). A single vertex
// stops regardless; one that fails the predicate is a container larger than
// any server, which the caller must reject or special-case.
using FitPredicate = std::function<bool(const Resource& demand)>;

// Group ids follow the recursion tree's leaves in preorder, left ('0')
// child first, so ascending group id is locality order: group_path strictly
// increases with the id, and adjacent ids are locality siblings. Serial and
// parallel runs build this in one place from position-keyed records of the
// recursion, so every field is bit-identical at every thread count.
struct RecursivePartitionResult {
  std::vector<int> group_of;  // per-vertex group id in [0, num_groups)
  int num_groups = 0;
  // Binary recursion-tree path per group ('0' = left, '1' = right). Groups
  // sharing a longer common prefix were split from each other later, so they
  // communicate more; placing them adjacently preserves locality (the paper
  // puts sibling groups in the same rack).
  std::vector<std::string> group_path;
  double cut_weight = 0.0;  // bisection cuts summed in preorder
};

// Optional sizing hint: how many server-capacity units a group's aggregate
// demand is worth (max over dimensions of demand/ceiling). When provided,
// an oversized group of U units is split at fraction ⌈U/2⌉/U instead of
// 1/2, so the recursion's leaves land close to 100% of a server's ceiling
// rather than the ~50–70% that plain halving produces.
using CapacityUnitsFn = std::function<double(const Resource& demand)>;

// The root bisection's coarsening, kept between calls (graph/scratch.h).
struct PartitionMemo;

// With a memo, the root split coarsens through it: a later call on a graph
// with the same structure stamp, seed and coarsen_target skips the root's
// coarsening and re-sums its coarse balance weights, with a result
// bit-identical to a call without the memo (DESIGN.md §11).
RecursivePartitionResult RecursivePartition(
    const CsrGraph& g, const FitPredicate& fits, const PartitionOptions& opts,
    const CapacityUnitsFn& units = nullptr, PartitionMemo* memo = nullptr);

}  // namespace gl
