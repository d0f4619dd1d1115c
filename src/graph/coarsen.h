// Deterministic parallel coarsening: heavy-edge matching + contraction
// (DESIGN.md §16).
//
// Both kernels produce bit-identical output at every thread width. Matching
// runs bounded propose/resolve rounds — each round every unmatched vertex
// proposes to its most-preferred positive-weight unmatched neighbor
// (preference = weight scaled by a symmetric per-level hash jitter, ties to
// the smallest id) reading only the match state frozen at round start, then
// mutual proposals lock in, each vertex writing only its own match slot — so
// the fixpoint is a pure function of (graph, level salt). A serial greedy
// sweep in the level's random order pairs the leftovers, and an absorption
// pass folds stranded singletons into their preferred paired neighbor's
// cluster. Contraction numbers coarse vertices serially in the same random
// sweep order, stages each coarse row into a padded per-row span in parallel
// (first-touch neighbor merge per row, rows disjoint), then packs the exact
// coarse CSR through graph/csr.h's indexed build after one serial prefix
// sum.
//
// Only positive edges are contracted — contracting an anti-affinity
// (negative) edge would glue replicas together and make them inseparable at
// finer levels. Coarse levels carry only balance weights: refinement never
// reads Resource demands, and group demands are summed from the original
// graph at leaf emission.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/csr.h"
#include "graph/scratch.h"

namespace gl {

// Chunk size of every intra-bisection parallel loop. One fixed grain keeps
// chunk boundaries — and therefore every chunk-indexed partial fold — a pure
// function of the problem size, never of the worker count (DESIGN.md §9).
inline constexpr std::size_t kPartitionChunkGrain = 2048;

// Runs fn(slot, begin, end) over [0, total) in kPartitionChunkGrain-sized
// runs: on the pool when one is supplied, serially (slot 0, ascending chunk
// order) when `pool` is null. Both paths use the identical chunk
// decomposition, so per-chunk partials fold the same way either way.
void ForPartitionChunks(
    ThreadPool* pool, std::size_t total,
    const std::function<void(int slot, std::size_t begin, std::size_t end)>&
        fn);

// Heavy-edge matching over `g` into s.match (match[v] is v's partner, or v
// itself when it stays a singleton) and s.absorb (each remaining singleton's
// paired absorber, or -1). Parallel propose/resolve rounds settle the bulk;
// the serial cleanup sweeps the contested tail in a random order drawn from
// `rng` — consumed identically at every thread width, so the output is a
// pure function of (graph, rng state) with or without a pool.
void HeavyEdgeMatch(const CsrGraph& g, ThreadPool* pool, Rng& rng,
                    PartitionScratch& s);

// Contracts `fine` by s.match (as produced by HeavyEdgeMatch) into `coarse`,
// writing the fine→coarse vertex map. Matched pairs merge balance weights;
// parallel arcs between coarse vertices merge in first-seen order; internal
// arcs drop. Identical output with or without a pool.
void ContractByMatching(const CsrGraph& fine, ThreadPool* pool,
                        CsrGraph& coarse,
                        std::vector<VertexIndex>& fine_to_coarse,
                        PartitionScratch& s);

// Right after ContractByMatching: the fine vertices each coarse vertex
// merged, in the order their balance weights were summed.
void RecordClusterMembers(const PartitionScratch& s, ClusterMembers& out);

// Sets `coarse`'s balance weights from `fine`'s through `members`: each
// coarse vertex's in member order, then the total in vertex order, the
// sums ContractByMatching and EndIndexedBuild compute. So after a column
// refresh of `fine`, `coarse` holds the doubles a new contraction would.
// Arcs, degrees and the structure stamp stay.
void ResumCoarseBalance(const CsrGraph& fine, const ClusterMembers& members,
                        CsrGraph& coarse);

}  // namespace gl
