// Reusable scratch arenas for the partitioning kernel (DESIGN.md §11).
//
// Every buffer the multilevel partitioner needs — matchings, coarse levels,
// gain arrays, heaps, move logs, subgraph views — lives in one
// PartitionScratch arena that is allocated once and reused across levels,
// recursion nodes, and epochs. Each helper re-initializes the portion it
// uses (assign/Reset) before reading it, so results never depend on what a
// previous subproblem left behind: a fresh arena and a warm arena produce
// bit-identical partitions. That property is what lets the parallel
// recursion driver hand each worker its own arena without changing results
// (DESIGN.md §9).
//
// Nothing here is thread-safe; an arena belongs to exactly one thread at a
// time. The parallel driver enforces that by construction (one arena per
// ParallelFor slot).
//
// One piece outlives a call: PartitionMemo, which a caller that
// repartitions the same graph keeps to hold the root bisection's
// coarsening.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "graph/refine.h"
#include "obs/memory.h"

namespace gl {

// FM's move queues: two max-heaps with lazy deletion and reusable storage,
// over one table of current priorities. Queue s holds the unlocked
// vertices on side s (partitioner.cc, FmPassLoop), and growing the initial
// partition uses queue 0. FM pushes a vertex into its own side's queue and
// locks it once it moves, so a vertex is live in at most one queue and one
// table serves both. An entry is live while its priority is its vertex's
// current one: a later PopTop, Invalidate or Push at another priority of
// the vertex, in either queue, leaves it stale for Peek to skip. Priorities
// compare on value only, so ties pop in heap order — deterministic for a
// given push sequence, which is all the FM contract requires (DESIGN.md §8).
class FmQueues {
 public:
  // Empties both queues for a universe of n vertices; keeps capacity.
  void Reset(std::size_t n) {
    current_.assign(n, kAbsent);
    for (Heap& heap : heaps_) heap.clear();
  }

  void Push(int q, VertexIndex v, double priority) {
    current_[static_cast<std::size_t>(v)] = priority;
    Heap& heap = heaps_[static_cast<std::size_t>(q)];
    heap.push_back(Entry{priority, v});
    for (std::size_t i = heap.size() - 1; i > 0;) {  // sift up
      const std::size_t p = (i - 1) / 2;
      if (heap[p].priority >= heap[i].priority) break;
      std::swap(heap[p], heap[i]);
      i = p;
    }
  }

  void Invalidate(VertexIndex v) {
    current_[static_cast<std::size_t>(v)] = kAbsent;
  }

  [[nodiscard]] bool Contains(VertexIndex v) const {
    return !std::isnan(current_[static_cast<std::size_t>(v)]);
  }

  // Reports queue q's highest-priority live entry without consuming it;
  // false when only stale entries (or nothing) remain. Stale entries on top
  // are discarded on the way, exactly as Pop discards them.
  bool Peek(int q, VertexIndex* v, double* priority) {
    Heap& heap = heaps_[static_cast<std::size_t>(q)];
    while (!heap.empty()) {
      const Entry& top = heap.front();
      if (current_[static_cast<std::size_t>(top.v)] == top.priority) {
        *v = top.v;
        *priority = top.priority;
        return true;
      }
      RemoveTop(heap);
    }
    return false;
  }

  // Consumes the entry the last successful Peek of queue q reported: the
  // vertex reads as absent until pushed again.
  void PopTop(int q) {
    Heap& heap = heaps_[static_cast<std::size_t>(q)];
    GOLDILOCKS_CHECK(!heap.empty());
    current_[static_cast<std::size_t>(heap.front().v)] = kAbsent;
    RemoveTop(heap);
  }

  // Pops queue q's highest-priority live entry (Peek, then PopTop); false
  // when only stale entries (or nothing) remain.
  bool Pop(int q, VertexIndex* v, double* priority) {
    if (!Peek(q, v, priority)) return false;
    PopTop(q);
    return true;
  }

  // Retained footprint in bytes (capacities). Observability only.
  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(heaps_[0]) +
           obs::VectorFootprintBytes(heaps_[1]) +
           obs::VectorFootprintBytes(current_);
  }

 private:
  struct Entry {
    double priority;
    VertexIndex v;
  };
  using Heap = std::vector<Entry>;

  // NaN sentinel compares unequal to everything, including itself — no
  // finite priority can collide with it.
  static constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

  static void RemoveTop(Heap& heap) {
    heap.front() = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    for (std::size_t i = 0;;) {  // sift down
      std::size_t largest = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && heap[l].priority > heap[largest].priority) largest = l;
      if (r < n && heap[r].priority > heap[largest].priority) largest = r;
      if (largest == i) break;
      std::swap(heap[i], heap[largest]);
      i = largest;
    }
  }

  std::array<Heap, 2> heaps_;
  std::vector<double> current_;
};

// Flat timestamped accumulator keyed by small integer ids: Add() sums
// weights per id in O(1), touched() returns the ids in first-touch order —
// deterministic by construction when the caller's scan order is, so no sort
// is needed. Reset is O(1) (epoch bump); storage grows to the largest
// universe seen and is then reused.
class GroupAccumulator {
 public:
  void Reset(std::size_t num_ids) {
    if (num_ids > sum_.size()) {
      sum_.resize(num_ids, 0.0);
      stamp_.resize(num_ids, 0);
      ++grow_events_;
    }
    touched_.clear();
    if (++epoch_ == 0) {  // wrapped: stamps from the old era could collide
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  void Add(int id, double w) {
    const auto i = static_cast<std::size_t>(id);
    GOLDILOCKS_CHECK_LT(i, sum_.size());
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      sum_[i] = w;
      touched_.push_back(id);
    } else {
      sum_[i] += w;
    }
  }

  [[nodiscard]] double Get(int id) const {
    const auto i = static_cast<std::size_t>(id);
    GOLDILOCKS_CHECK_LT(i, sum_.size());
    return stamp_[i] == epoch_ ? sum_[i] : 0.0;
  }

  // Ids seen this epoch, in first-touch order.
  [[nodiscard]] std::span<const int> touched() const { return touched_; }

  // Test seam: forces the epoch counter so the wrap path is reachable
  // without 2^32 Resets.
  void set_epoch_for_test(std::uint32_t epoch) { epoch_ = epoch; }

  // Retained footprint in bytes (capacities, never released by Reset), and
  // how many Resets actually grew the universe — the arena's allocation
  // events. Observability only (DESIGN.md §10).
  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(sum_) +
           obs::VectorFootprintBytes(stamp_) +
           obs::VectorFootprintBytes(touched_);
  }
  [[nodiscard]] std::uint64_t grow_events() const { return grow_events_; }

 private:
  std::vector<double> sum_;
  std::vector<std::uint32_t> stamp_;
  std::vector<int> touched_;
  std::uint32_t epoch_ = 0;
  std::uint64_t grow_events_ = 0;
};

// Working memory of one running multi-trial FM instance (partitioner.cc).
// There is one per concurrently running trial, not one per trial, so trials
// on pool threads share nothing mutable. A trial re-initializes every
// buffer (assign/Reset) before use, so which working set it runs on never
// shows in its result.
struct FmTrialScratch {
  std::vector<double> gain;
  FmQueues queues;
  std::vector<std::uint8_t> moved;
  std::vector<VertexIndex> move_seq;
  std::vector<VertexIndex> seed_order;  // boundary-seed push order

  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(gain) + queues.ApproxBytes() +
           obs::VectorFootprintBytes(moved) +
           obs::VectorFootprintBytes(move_seq) +
           obs::VectorFootprintBytes(seed_order);
  }
};

// One multi-trial FM trial's result, read by the serial winner fold after
// the batch joins.
struct FmTrialResult {
  std::vector<std::uint8_t> side;
  double cut = 0.0;
  double w0 = 0.0;
  std::uint64_t arcs_scanned = 0;
  std::uint64_t rejections = 0;
};

// A growing trial of one bisection (partitioner.cc, BisectCsr): the w0 its
// grown sides start from, and its quick-FM result with the work counters
// it added. The sides themselves live in PartitionScratch's flat
// grow_starts/grow_results, n bytes per distinct start.
struct GrowTrial {
  double start_w0 = 0.0;
  double cut = 0.0;
  double w0 = 0.0;
  std::uint64_t arcs_scanned = 0;
  std::uint64_t rejections = 0;
};

// A bisection's coarsening hierarchy: coarse level i lives in levels[i] and
// maps fine vertex v of the level below to maps[i][v]. Deques, so growing
// the hierarchy never moves (and never invalidates pointers to) built
// levels.
struct CoarseHierarchy {
  std::deque<CsrGraph> levels;
  std::deque<std::vector<VertexIndex>> maps;

  [[nodiscard]] std::size_t ApproxBytes() const {
    std::size_t bytes = 0;
    for (const auto& level : levels) bytes += level.ApproxBytes();
    for (const auto& map : maps) bytes += obs::VectorFootprintBytes(map);
    return bytes;
  }
};

// The fine vertices one coarse level merged into each coarse vertex, in the
// order ContractByMatching summed their balance weights: the
// representative, its partner when matched, then the absorbed singletons
// ascending. Coarse vertex c owns ids[off[c] .. off[c+1]).
struct ClusterMembers {
  std::vector<std::size_t> off;
  std::vector<VertexIndex> ids;
};

// The root bisection's coarsening, which a RecursivePartition caller keeps
// from one call to the next (DESIGN.md §11). Matching reads only a graph's
// arcs and the bisection's RNG, contraction reads balance weights only to
// sum them, and the root bisects with Rng(opts.seed) in every call. So on
// a graph with the same structure stamp, seed and coarsen_target, the
// matchings, coarse arcs, degrees, maps and the RNG state after coarsening
// repeat, and a hit only re-sums each coarse balance weight from its
// members in contraction order. Only the root split uses it, and that
// split runs on the calling thread at every width.
struct PartitionMemo {
  // Key: what the hierarchy was coarsened from. structure == 0 is empty.
  std::uint64_t structure = 0;  // CsrGraph::structure_stamp()
  std::uint64_t seed = 0;
  int coarsen_target = 0;

  CoarseHierarchy hierarchy;  // the root coarsens here, never copied
  std::vector<ClusterMembers> members;  // per level of the chain
  std::size_t depth = 0;  // levels the root bisection refines through
  Rng rng;  // the root bisection's stream once coarsening has drawn
  std::uint64_t hits = 0;  // calls that reused the hierarchy
};

// One depth of the recursion (partitioner.cc): see PartitionScratch::depths.
struct RecursionDepth {
  std::vector<std::uint8_t> side;
  CsrGraph child;
};

// The partitioner's working memory. One arena serves a whole serial
// recursive partition; the parallel driver gives each concurrently-solved
// subtree its own. Buffers are grouped by the phase that owns them; phases
// never overlap, so none alias.
struct PartitionScratch {
  // Multilevel hierarchy of every bisection but a memoized root's.
  CoarseHierarchy hierarchy;

  // Pointer chain from the finest graph through the built levels, rebuilt by
  // every bisection. Lives here (not as a BisectCsr local) so the steady
  // state allocates nothing: capacity from the deepest hierarchy seen is
  // reused by every later call (DESIGN.md §11).
  std::vector<const CsrGraph*> level_chain;

  // Coarsening (graph/coarsen.cc). `match` and `propose` are the two ping
  // buffers of the propose/resolve matching rounds; the contraction pass
  // owns the rest: `rep` marks each matched pair's representative (smaller
  // endpoint), `fine_to_coarse` numbers coarse vertices, the `row_*` arrays
  // hold per-coarse-row metadata, and `pad_col`/`pad_w` are the padded
  // arc staging buffers sized by upper-bound degrees before the exact
  // prefix sum packs them into the coarse CSR. `dedup` holds one
  // neighbor-merge accumulator per pool slot; concurrent chunks touch
  // disjoint slots and Reset per coarse row, so slot reuse is safe.
  std::vector<VertexIndex> order;     // per-level random sweep order
  std::vector<VertexIndex> match;
  std::vector<VertexIndex> propose;
  std::vector<VertexIndex> absorb;    // singleton → paired absorber, or -1
  std::vector<VertexIndex> rep;
  std::vector<std::size_t> mem_off;   // absorbed members grouped by cluster
  std::vector<VertexIndex> mem;
  std::vector<std::size_t> mem_fill;
  std::vector<std::size_t> pad_off;
  std::vector<std::size_t> row_off;
  std::vector<std::size_t> row_count;
  std::vector<double> row_balance;
  std::vector<double> row_deg;
  std::vector<VertexIndex> pad_col;
  std::vector<double> pad_w;
  std::vector<GroupAccumulator> dedup;

  // Initial partition growth + FM refinement. Growing uses queue 0.
  FmQueues queues;
  std::vector<double> gain;
  std::vector<double> grow_key;
  std::vector<std::uint8_t> side;
  std::vector<std::uint8_t> fine_side;
  std::vector<std::uint8_t> best_side;
  std::vector<std::uint8_t> trial_side;
  std::vector<std::uint8_t> in_region;
  std::vector<std::uint8_t> moved;
  std::vector<VertexIndex> move_seq;
  std::vector<std::uint64_t> outside_bits;  // growing: vertices not absorbed

  // The current bisection's distinct growing trials: their records, and
  // their grown and refined sides, n bytes per trial, trial after trial.
  std::vector<GrowTrial> grow_trials;
  std::vector<std::uint8_t> grow_starts;
  std::vector<std::uint8_t> grow_results;

  // Multi-trial FM (partitioner.cc): one working set per concurrently
  // running trial, the shared chunked-precompute partial sums (folded in
  // chunk order, one canonical summation order at every width), and each
  // trial's result and outcome for the winner fold. Sized once and reused
  // across levels.
  std::vector<FmTrialScratch> fm_sets;
  std::vector<FmTrialResult> fm_results;
  std::vector<double> chunk_partials;
  std::vector<FmTrialOutcome> trial_outcomes;

  // Recursion over index ranges (partitioner.cc): per depth, the sides of
  // that depth's split and the one child view alive below it, which is the
  // left child's until its subtree returns and then the right child's, both
  // filtered from the split's own view. `view_rank` numbers a child's
  // vertices while one is filtered; `split_one` stages the stable split.
  std::deque<RecursionDepth> depths;
  std::vector<VertexIndex> view_rank;
  std::vector<VertexIndex> split_one;

  // ---- memory observability (DESIGN.md §10; informational only) ---------

  // Arena high-water mark in bytes; updated by NoteHighWater(), never
  // decreased — capacities survive every Reset()/Clear(), so the mark is
  // monotone over the arena's lifetime even as subproblems shrink.
  std::size_t peak_bytes = 0;

  // Retained footprint right now: the sum of every buffer's capacity.
  [[nodiscard]] std::size_t ApproxBytes() const {
    std::size_t bytes = hierarchy.ApproxBytes();
    bytes += obs::VectorFootprintBytes(level_chain);
    bytes += obs::VectorFootprintBytes(match);
    bytes += obs::VectorFootprintBytes(order);
    bytes += obs::VectorFootprintBytes(propose);
    bytes += obs::VectorFootprintBytes(absorb);
    bytes += obs::VectorFootprintBytes(rep);
    bytes += obs::VectorFootprintBytes(mem_off);
    bytes += obs::VectorFootprintBytes(mem);
    bytes += obs::VectorFootprintBytes(mem_fill);
    bytes += obs::VectorFootprintBytes(pad_off);
    bytes += obs::VectorFootprintBytes(row_off);
    bytes += obs::VectorFootprintBytes(row_count);
    bytes += obs::VectorFootprintBytes(row_balance);
    bytes += obs::VectorFootprintBytes(row_deg);
    bytes += obs::VectorFootprintBytes(pad_col);
    bytes += obs::VectorFootprintBytes(pad_w);
    for (const auto& d : dedup) bytes += d.ApproxBytes();
    bytes += queues.ApproxBytes();
    bytes += obs::VectorFootprintBytes(gain);
    bytes += obs::VectorFootprintBytes(grow_key);
    bytes += obs::VectorFootprintBytes(side);
    bytes += obs::VectorFootprintBytes(fine_side);
    bytes += obs::VectorFootprintBytes(best_side);
    bytes += obs::VectorFootprintBytes(trial_side);
    bytes += obs::VectorFootprintBytes(in_region);
    bytes += obs::VectorFootprintBytes(moved);
    bytes += obs::VectorFootprintBytes(move_seq);
    bytes += obs::VectorFootprintBytes(outside_bits);
    bytes += obs::VectorFootprintBytes(grow_trials);
    bytes += obs::VectorFootprintBytes(grow_starts);
    bytes += obs::VectorFootprintBytes(grow_results);
    for (const auto& t : fm_sets) bytes += t.ApproxBytes();
    for (const auto& r : fm_results) {
      bytes += obs::VectorFootprintBytes(r.side);
    }
    bytes += obs::VectorFootprintBytes(chunk_partials);
    bytes += obs::VectorFootprintBytes(trial_outcomes);
    for (const auto& d : depths) {
      bytes += obs::VectorFootprintBytes(d.side) + d.child.ApproxBytes();
    }
    bytes += obs::VectorFootprintBytes(view_rank);
    bytes += obs::VectorFootprintBytes(split_one);
    return bytes;
  }

  // Folds the current footprint into the high-water mark; true when the
  // mark moved (i.e. some buffer actually grew since the last call).
  bool NoteHighWater() {
    const std::size_t bytes = ApproxBytes();
    if (bytes <= peak_bytes) return false;
    peak_bytes = bytes;
    return true;
  }
};

}  // namespace gl
