#include "graph/partitioner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/coarsen.h"
#include "graph/csr.h"
#include "graph/fm.h"
#include "graph/refine.h"
#include "graph/scratch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// The kernel runs entirely on flat CSR storage (graph/csr.h) with reusable
// scratch arenas (graph/scratch.h): coarse levels are written into arena
// storage, the recursion partitions index ranges of one global permutation
// and hands each child a view filtered from its parent's instead of
// materializing InducedSubgraph copies, and FM maintains gains
// incrementally across passes (graph/fm.h). DESIGN.md §11 documents the
// layout and why determinism survives the rewrite.

namespace gl {
namespace {

// Deterministic decision counters (DESIGN.md §10). Totals are exact at any
// thread count — addition commutes — and hot loops batch into locals so the
// atomic is touched once per call, not per edge.
obs::Counter& CutEdgesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.cut_edges_evaluated", obs::MetricKind::kDeterministic);
  return c;
}

obs::Counter& FmRejectionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.bisection_rejections", obs::MetricKind::kDeterministic);
  return c;
}

// Growing trials left unrun because an earlier one was already balanced
// with zero cut and no later one could have won (BisectCsr).
obs::Counter& InitialTrialsSkippedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.initial_trials_skipped", obs::MetricKind::kDeterministic);
  return c;
}

obs::Counter& DegenerateSplitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.degenerate_splits", obs::MetricKind::kDeterministic);
  return c;
}

// Recursion splits, one per bisected view (the root's is the input graph);
// the recursion path never calls InducedSubgraph, which the arena test
// checks against graph.induced_subgraph_builds.
obs::Counter& SubgraphViewsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.subgraph_views", obs::MetricKind::kDeterministic);
  return c;
}

// Arena growth events: Resets/splits that actually enlarged a scratch
// buffer. Informational — growth depends on the subproblem schedule, which
// varies with the thread count (each worker warms its own arena).
obs::Counter& ScratchGrowthCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.scratch_grow_events", obs::MetricKind::kInformational);
  return c;
}

// Publishes the memory and pool-utilization telemetry of one partition call
// on the informational side of the registry (never hashed, DESIGN.md §10).
// A memoized root coarsens into the caller's memo, not an arena, so its
// levels count too.
void PublishScratchPeak(std::size_t peak_bytes, const PartitionMemo* memo) {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "partition.scratch_peak_bytes", obs::MetricKind::kInformational);
  if (memo != nullptr) peak_bytes += memo->hierarchy.ApproxBytes();
  g.Set(static_cast<double>(peak_bytes));
}

void PublishPoolStats(const ThreadPoolStats& stats) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Gauge& eff = reg.GetGauge("partition.pool.parallel_efficiency",
                                        obs::MetricKind::kInformational);
  static obs::Gauge& busy = reg.GetGauge("partition.pool.busy_ms",
                                         obs::MetricKind::kInformational);
  static obs::Gauge& idle = reg.GetGauge("partition.pool.idle_ms",
                                         obs::MetricKind::kInformational);
  static obs::Gauge& wait = reg.GetGauge("partition.pool.queue_wait_ms",
                                         obs::MetricKind::kInformational);
  eff.Set(stats.ParallelEfficiency());
  busy.Set(stats.busy_us / 1000.0);
  idle.Set(stats.IdleUs() / 1000.0);
  wait.Set(stats.queue_wait_us / 1000.0);
}

// Coarsening lives in graph/coarsen.{h,cc}: deterministic propose/resolve
// heavy-edge matching plus staged parallel contraction, bit-identical at
// every thread width.

// Anti-affinity arcs are the only ones that make a cut negative.
bool HasNegativeArc(const CsrGraph& g) {
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    for (const double w : g.arc_weights(v)) {
      if (w < 0.0) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Initial partition on the coarsest graph: greedy graph growing. Grows side 0
// from a random seed, always absorbing the frontier vertex that most reduces
// the eventual cut, until side 0 reaches its target weight.
// ---------------------------------------------------------------------------
// Reports the grown region's balance weight through `w0_out` (summed in
// absorption order), so callers skip an O(n) rescan per trial.
void GrowInitialPartition(const CsrGraph& g, const BalanceBounds& bounds,
                          Rng& rng, PartitionScratch& s,
                          std::vector<std::uint8_t>& side, double* w0_out) {
  const auto n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);
  side.assign(sn, 1);
  *w0_out = 0.0;
  if (n == 0) return;

  FmQueues& heap = s.queues;
  heap.Reset(sn);
  s.in_region.assign(sn, 0);
  s.grow_key.resize(sn);
  double w0 = 0.0;
  // One bit per vertex outside the region, so a reseed selects without
  // rescanning every vertex. Bits past n stay clear.
  s.outside_bits.assign((sn + 63) / 64, ~std::uint64_t{0});
  if (sn % 64 != 0) s.outside_bits.back() = (std::uint64_t{1} << (sn % 64)) - 1;
  std::size_t outside_count = sn;

  const auto absorb = [&](VertexIndex v) {
    const auto vi = static_cast<std::size_t>(v);
    s.outside_bits[vi / 64] &= ~(std::uint64_t{1} << (vi % 64));
    --outside_count;
    s.in_region[vi] = 1;
    side[vi] = 0;
    w0 += g.balance_weight(v);
    heap.Invalidate(v);
    const auto [to, ws] = g.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto u = static_cast<std::size_t>(to[i]);
      if (s.in_region[u]) continue;
      // Edge i flips from region-external to region-internal for to[i].
      s.grow_key[u] += 2.0 * ws[i];
      heap.Push(0, to[i], s.grow_key[u]);
    }
  };

  const auto seed_new_component = [&]() -> bool {
    // All frontier exhausted: jump to a random vertex outside the region,
    // the k-th in ascending id order (same draw, same vertex as indexing a
    // list of the outside vertices).
    if (outside_count == 0) return false;
    std::uint64_t k = rng.NextBelow(outside_count);
    std::size_t word = 0;
    for (;; ++word) {
      const auto ones =
          static_cast<std::uint64_t>(std::popcount(s.outside_bits[word]));
      if (k < ones) break;
      k -= ones;
    }
    std::uint64_t bits = s.outside_bits[word];
    for (; k > 0; --k) bits &= bits - 1;  // drop the k lowest set bits
    const std::size_t picked =
        word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    GOLDILOCKS_CHECK(picked < sn);
    absorb(static_cast<VertexIndex>(picked));
    return true;
  };

  // Initial gain of v if absorbed = -(its total external weight); seed with
  // that so the heap ordering is correct from the start.
  for (VertexIndex v = 0; v < n; ++v) {
    s.grow_key[static_cast<std::size_t>(v)] = -g.degree_weight(v);
  }

  if (!seed_new_component()) return;
  while (w0 < bounds.target0) {
    VertexIndex v;
    double priority;
    if (heap.Pop(0, &v, &priority)) {
      if (s.in_region[static_cast<std::size_t>(v)]) continue;
      absorb(v);
    } else if (!seed_new_component()) {
      break;
    }
  }
  *w0_out = w0;
}

// ---------------------------------------------------------------------------
// Fiduccia–Mattheyses refinement with rollback to the best prefix. Also
// restores balance when the incoming partition is infeasible (moves that
// reduce the balance violation are allowed regardless of gain).
//
// Gains are computed once (FmEngine::Attach, O(arcs)) and maintained
// incrementally from then on: each move delta-updates only the moved
// vertex's neighborhood, and the rollback replays Flip in reverse, which
// restores the prefix-state gains — so later passes start from maintained
// gains instead of an O(arcs) recompute.
// ---------------------------------------------------------------------------
// Per-vertex multiplicative heap-priority perturbation for FM trials:
// a pure hash of (vertex, trial salt) mapped into [0.9, 1.1). Popping by
// perturbed priority sends each trial down a different hill-climb while the
// engine still prices every move with exact gains — the rollback keeps the
// best prefix by exact cut, so perturbation reorders exploration and never
// mis-prices it. Additive tie-jitter is useless here: continuous edge
// weights make exact gain ties vanishingly rare, so perturbing anything
// less than the relative order of distinct gains leaves every trial walking
// the same trajectory.
double FmPriorityFactor(VertexIndex v, std::uint64_t salt) {
  std::uint64_t x = salt ^ (static_cast<std::uint64_t>(v) *
                            0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return 0.9 + 0.2 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

// The pass loop proper, on caller-supplied working state so the classic
// single-stream path and every concurrent multi-trial instance share one
// implementation. `seed_order` reorders the seeding scan (null = ascending
// ids) and `perturb_salt`, when set, scales every heap priority by
// FmPriorityFactor — move bookkeeping always uses the engine's exact gains,
// so trials explore different move orders while pricing every cut
// identically.
//
// Each side has its own queue (METIS' per-part queues): an unlocked vertex
// sits in queue side[v], and moved vertices are locked for the pass, so a
// queued vertex never changes sides and one priority table serves both.
// Each step takes the higher of the two live tops, side 0 on ties. When the
// balance bound blocks that top, the other side's top moves instead and the
// blocked vertex stays queued for when the balance shifts back; only when
// neither top may move is the higher one popped as a rejection.
void FmPassLoop(const CsrGraph& g, const BalanceBounds& bounds,
                const PartitionOptions& opts, int max_passes,
                FmEngine& engine, std::vector<std::uint8_t>& side,
                double& cut, double& w0, FmQueues& queues,
                std::vector<std::uint8_t>& moved,
                std::vector<VertexIndex>& move_seq,
                const std::vector<VertexIndex>* seed_order,
                const std::uint64_t* perturb_salt,
                std::uint64_t* moves_rejected) {
  obs::TraceSpan span("partition.refine.fm",
                      static_cast<std::int64_t>(g.num_vertices()));
  const auto n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);

  // Cost controls engage only above the coarsening threshold: small graphs
  // are cheap enough to explore exhaustively, and their relative cut swings
  // are large enough that cutting exploration short costs real quality.
  const bool big = n > 2 * opts.coarsen_target;

  // Permit a move if it stays feasible, or strictly improves an infeasible
  // balance (restoration mode).
  const auto may_move = [&](VertexIndex v) {
    const double bw = g.balance_weight(v);
    const double new_w0 =
        side[static_cast<std::size_t>(v)] == 0 ? w0 - bw : w0 + bw;
    const double new_violation = bounds.Violation(new_w0);
    return !(new_violation > 1e-12 && new_violation >= bounds.Violation(w0));
  };

  for (int pass = 0; pass < max_passes; ++pass) {
    // Boundary seeding: when the balance is feasible, only candidates with
    // positive gain or cut adjacency are worth queueing — the classic
    // boundary-FM move set. A vertex with cross-cut weight has
    // gain(v) + degree(v) = 2*w_cross > 0; one whose move strictly improves
    // the cut has gain(v) > 0. Everything else is interior with nothing to
    // offer at seed time — it enters its side's queue the moment a
    // neighbor's move makes it relevant. An infeasible balance needs
    // arbitrary vertices to restore it, so restoration passes seed everyone.
    const bool seed_all = bounds.Violation(w0) > 1e-12;
    queues.Reset(sn);
    const auto push = [&](VertexIndex v, double gv) {
      queues.Push(side[static_cast<std::size_t>(v)], v,
                  perturb_salt != nullptr
                      ? gv * FmPriorityFactor(v, *perturb_salt)
                      : gv);
    };
    const auto push_seed = [&](VertexIndex v) {
      const double gv = engine.gain(v);
      if (seed_all || gv > 1e-12 || gv + g.degree_weight(v) > 1e-12) {
        push(v, gv);
      }
    };
    if (seed_order != nullptr) {
      for (const auto v : *seed_order) push_seed(v);
    } else {
      for (VertexIndex v = 0; v < n; ++v) push_seed(v);
    }

    moved.assign(sn, 0);
    move_seq.clear();
    const double pass_cut = cut;
    const double pass_w0 = w0;
    double best_cut = cut;
    double best_violation = bounds.Violation(w0);
    std::size_t best_prefix = 0;
    int stall = 0;

    VertexIndex top[2] = {0, 0};
    double priority[2] = {0.0, 0.0};
    bool live[2] = {false, false};
    while (true) {
      live[0] = queues.Peek(0, &top[0], &priority[0]);
      live[1] = queues.Peek(1, &top[1], &priority[1]);
      if (!live[0] && !live[1]) break;
      const int first =
          (!live[1] || (live[0] && priority[0] >= priority[1])) ? 0 : 1;
      int from = first;
      if (!may_move(top[first])) {
        if (!live[first ^ 1] || !may_move(top[first ^ 1])) {
          queues.PopTop(first);
          ++*moves_rejected;
          continue;
        }
        from = first ^ 1;
      }
      queues.PopTop(from);
      const VertexIndex v = top[from];
      const double bw = g.balance_weight(v);

      moved[static_cast<std::size_t>(v)] = 1;
      move_seq.push_back(v);
      cut -= engine.gain(v);
      w0 += side[static_cast<std::size_t>(v)] == 0 ? -bw : bw;
      engine.Flip(v);

      // Re-queue the unlocked neighbors at their updated gains; locked
      // neighbors keep exact gains too (Flip maintains them all) but stay
      // out of the queues for this pass.
      const auto to = g.arcs(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (!moved[static_cast<std::size_t>(to[i])]) {
          push(to[i], engine.gain(to[i]));
        }
      }

      const double violation = bounds.Violation(w0);
      const bool better =
          (violation < best_violation - 1e-12) ||
          (violation <= best_violation + 1e-12 && cut < best_cut - 1e-12);
      if (better) {
        best_cut = cut;
        best_violation = violation;
        best_prefix = move_seq.size();
        stall = 0;
      } else if (++stall > opts.fm_stall_limit ||
                 (violation <= best_violation + 1e-12 &&
                  cut > best_cut + (big ? 0.10 : 0.35) *
                                       (std::abs(best_cut) + 1.0))) {
        // Give up on a hill-climb that has either stalled or dug itself too
        // far above the best cut seen — prefixes that deep essentially never
        // recover within the stall budget, and every probe move costs a Flip
        // now and another at rollback. Small graphs get a looser leash
        // (their relative cut swings are larger and exploring them is
        // cheap); large graphs cut off at 10%.
        break;
      }
    }

    // Roll back everything after the best prefix; reverse-order Flips
    // restore the prefix gains, so the next pass needs no recompute.
    for (std::size_t i = move_seq.size(); i > best_prefix; --i) {
      const auto u = move_seq[i - 1];
      const double bw = g.balance_weight(u);
      w0 += side[static_cast<std::size_t>(u)] == 0 ? -bw : bw;
      engine.Flip(u);
    }
    cut = best_cut;
    const bool improved = best_cut < pass_cut - 1e-12 ||
                          best_violation < bounds.Violation(pass_w0) - 1e-12;
    if (!improved) break;
  }
}

// What one FM run adds to partition.cut_edges_evaluated and
// partition.bisection_rejections.
struct FmWork {
  std::uint64_t arcs = 0;
  std::uint64_t rejections = 0;
};

// FmRefine, returning its counter increments instead of adding them.
FmWork FmRefineWork(const CsrGraph& g, const BalanceBounds& bounds,
                    const PartitionOptions& opts,
                    std::vector<std::uint8_t>& side, double& cut, double& w0,
                    PartitionScratch& s) {
  FmEngine engine;
  engine.Attach(g, &side, &s.gain);
  // The Attach scan prices the incoming assignment; the caller's stale (or
  // carried) value is replaced wholesale, which also re-canonicalizes any
  // accumulated rounding drift once per level.
  cut = engine.initial_cut();
  FmWork work;
  FmPassLoop(g, bounds, opts, opts.refine_passes, engine, side, cut, w0,
             s.queues, s.moved, s.move_seq, /*seed_order=*/nullptr,
             /*perturb_salt=*/nullptr, &work.rejections);
  work.arcs = engine.arcs_scanned();
  return work;
}

}  // namespace

void FmRefine(const CsrGraph& g, const BalanceBounds& bounds,
              const PartitionOptions& opts, std::vector<std::uint8_t>& side,
              double& cut, double& w0, PartitionScratch& s) {
  const FmWork work = FmRefineWork(g, bounds, opts, side, cut, w0, s);
  CutEdgesCounter().Add(work.arcs);
  FmRejectionsCounter().Add(work.rejections);
}

namespace {

// Whether a level of `n` vertices runs the multi-trial FM, the only reader
// of its level salt; every other level refines single-stream.
bool MultiTrialLevel(VertexIndex n, const PartitionOptions& opts) {
  return n >= static_cast<VertexIndex>(opts.parallel_min_vertices) &&
         opts.fm_trials > 1;
}

// ---------------------------------------------------------------------------
// Multi-trial FM (DESIGN.md §16): on levels big enough to matter, run
// opts.fm_trials independent FM instances from the same projected
// assignment — trial t seeds its heap in an order shuffled by the keyed
// sub-stream Fork(t), with a tiny deterministic tie-perturbation on seed
// priorities — and adopt the canonical winner (graph/refine.h). Gains for
// the common starting point are computed once by a chunked scan whose
// per-chunk partial cuts fold in chunk order (one canonical summation order
// at every width); each trial then copies that state and maintains it
// incrementally. Trials are embarrassingly parallel: each running trial owns
// its working set and each trial its result, so the batch runs on the pool
// when one is available and back-to-back otherwise, with bit-identical
// results either way.
// ---------------------------------------------------------------------------
void FmRefineMultiTrial(const CsrGraph& g, const BalanceBounds& bounds,
                        const PartitionOptions& opts, ThreadPool* pool,
                        std::uint64_t level_salt,
                        std::vector<std::uint8_t>& side, double& cut,
                        double& w0, PartitionScratch& s) {
  const auto n = g.num_vertices();
  if (!MultiTrialLevel(n, opts)) {
    FmRefine(g, bounds, opts, side, cut, w0, s);
    return;
  }
  const auto sn = static_cast<std::size_t>(n);

  // Shared gain precompute over the projected assignment. Chunk c's partial
  // cross-weight lands in chunk_partials[c]; the serial fold below visits
  // chunks in index order, so the starting cut is the same double at every
  // thread width (DESIGN.md §9).
  s.gain.resize(sn);
  const std::size_t chunks =
      (sn + kPartitionChunkGrain - 1) / kPartitionChunkGrain;
  s.chunk_partials.assign(chunks, 0.0);
  ForPartitionChunks(
      pool, sn, [&](int, std::size_t begin, std::size_t end) {
        double cross = 0.0;
        for (std::size_t sv = begin; sv < end; ++sv) {
          GOLDILOCKS_CHECK(sv < sn);
          const auto v = static_cast<VertexIndex>(sv);
          const auto [to, ws] = g.arc_range(v);
          double gv = 0.0;
          for (std::size_t i = 0; i < to.size(); ++i) {
            const bool is_cross =
                side[sv] != side[static_cast<std::size_t>(to[i])];
            gv += is_cross ? ws[i] : -ws[i];
          }
          s.gain[sv] = gv;
          cross += gv + g.degree_weight(v);
        }
        s.chunk_partials[begin / kPartitionChunkGrain] = cross;
      });
  double cross_total = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) cross_total += s.chunk_partials[c];
  const double cut0 = cross_total / 4.0;

  const auto trials = static_cast<std::size_t>(opts.fm_trials);
  // One working set per trial that runs at a time: up to min(trials,
  // width) side by side on a pool, one after another without. Working set
  // b runs the block of trials [b * per_set, (b + 1) * per_set) in order;
  // each trial keeps only its result sides and outcome for the fold.
  const std::size_t sets =
      pool != nullptr
          ? std::min(trials, static_cast<std::size_t>(pool->num_threads()))
          : 1;
  const std::size_t per_set = (trials + sets - 1) / sets;
  const std::size_t blocks = (trials + per_set - 1) / per_set;
  if (s.fm_sets.size() < blocks) s.fm_sets.resize(blocks);
  if (s.fm_results.size() < trials) s.fm_results.resize(trials);
  s.trial_outcomes.resize(trials);
  // Every trial gets the full pass budget: trials exist to buy quality with
  // width, and a trial cut short mid-climb is worth little. The extra work
  // runs on otherwise-idle workers — the level's critical path is still one
  // trial's pass loop — and at width 1 it is the price of the quality the
  // winner fold buys back.
  const int passes_per_trial = opts.refine_passes;
  const Rng trial_base(level_salt);

  const auto run_trial = [&](std::size_t t, FmTrialScratch& tr) {
    // Trials are parallel lanes whenever a pool is attached: the profiler
    // treats them as alternatives even when a narrow machine ran them
    // back-to-back on one worker.
    obs::TraceSpan trial_span("partition.refine.trial",
                              static_cast<std::int64_t>(t),
                              /*parallel_lane=*/pool != nullptr);
    FmTrialResult& res = s.fm_results[t];
    res.side.assign(side.begin(), side.end());
    tr.gain.assign(s.gain.begin(), s.gain.end());
    FmEngine engine;
    engine.AttachPrecomputed(g, &res.side, &tr.gain, cut0);
    double trial_cut = cut0;
    double trial_w0 = w0;
    res.rejections = 0;

    Rng rng = trial_base.Fork(static_cast<std::uint64_t>(t));
    tr.seed_order.resize(sn);
    std::iota(tr.seed_order.begin(), tr.seed_order.end(), 0);
    if (t > 0) {
      for (std::size_t i = sn; i > 1; --i) {
        std::swap(tr.seed_order[i - 1], tr.seed_order[rng.NextBelow(i)]);
      }
    }
    // Trial 0 is the un-perturbed stream (identity order, exact
    // priorities): the winner can only match or improve on classic FM.
    const std::uint64_t trial_salt = rng.NextU64();
    FmPassLoop(g, bounds, opts, passes_per_trial, engine, res.side,
               trial_cut, trial_w0, tr.queues, tr.moved, tr.move_seq,
               &tr.seed_order, t > 0 ? &trial_salt : nullptr,
               &res.rejections);
    res.cut = trial_cut;
    res.w0 = trial_w0;
    res.arcs_scanned = engine.arcs_scanned();
  };
  const auto run_block = [&](std::size_t b) {
    const std::size_t end = std::min(trials, (b + 1) * per_set);
    for (std::size_t t = b * per_set; t < end; ++t) run_trial(t, s.fm_sets[b]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(blocks, run_block);
  } else {
    run_block(0);
  }

  // Canonical serial fold over the trial outcomes; counters accumulate in
  // trial order, and the shared precompute scan is charged exactly once —
  // the deterministic totals never depend on scheduling or width.
  for (std::size_t t = 0; t < trials; ++t) {
    s.trial_outcomes[t] = {bounds.Violation(s.fm_results[t].w0),
                           s.fm_results[t].cut};
  }
  const std::size_t win = PickFmWinner(s.trial_outcomes);
  FmTrialResult& winner = s.fm_results[win];
  side.swap(winner.side);
  cut = winner.cut;
  w0 = winner.w0;
  std::uint64_t arcs = g.num_arcs();
  std::uint64_t rejections = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    arcs += s.fm_results[t].arcs_scanned;
    rejections += s.fm_results[t].rejections;
  }
  CutEdgesCounter().Add(arcs);
  FmRejectionsCounter().Add(rejections);
}

// ---------------------------------------------------------------------------
// Multilevel bisection on a CSR graph, entirely in arena storage: coarsen
// into the arena's hierarchy (or the memo's, for a root), grow + refine on
// the coarsest, project back through the level maps refining at every
// level. Writes the finest-level sides into `side_out` (any scratch buffer
// other than s.side).
// ---------------------------------------------------------------------------

struct CsrBisection {
  double cut_weight = 0.0;
  double w0 = 0.0;
  bool balanced = false;
};

// Whether `memo` holds the coarsening of `g` under `opts` (PartitionMemo).
// The stamp is issued by builds only, so equal stamps mean equal arcs.
bool MemoHolds(const PartitionMemo& memo, const CsrGraph& g,
               const PartitionOptions& opts) {
  return memo.structure != 0 && memo.structure == g.structure_stamp() &&
         memo.seed == opts.seed && memo.coarsen_target == opts.coarsen_target;
}

// The earlier growing trial of the current bisection that started from the
// sides in s.trial_side with the same w0 bits, or null.
const GrowTrial* SameGrowStart(const PartitionScratch& s, std::size_t n,
                               double w0) {
  for (std::size_t t = 0; t < s.grow_trials.size(); ++t) {
    if (std::bit_cast<std::uint64_t>(s.grow_trials[t].start_w0) ==
            std::bit_cast<std::uint64_t>(w0) &&
        std::equal(s.trial_side.begin(), s.trial_side.end(),
                   s.grow_starts.begin() +
                       static_cast<std::ptrdiff_t>(t * n))) {
      return &s.grow_trials[t];
    }
  }
  return nullptr;
}

CsrBisection BisectCsr(const CsrGraph& g, const PartitionOptions& opts,
                       double target_fraction, ThreadPool* pool,
                       PartitionScratch& s,
                       std::vector<std::uint8_t>& side_out,
                       PartitionMemo* memo = nullptr) {
  const auto n = g.num_vertices();
  CsrBisection out;
  side_out.assign(static_cast<std::size_t>(n), 0);
  if (n <= 1) {
    out.w0 = g.total_balance_weight();
    out.balanced = true;
    return out;
  }

  Rng rng(opts.seed);

  // Levels below the parallel threshold coarsen and refine without the
  // pool: the gate reads the problem size only, so gating changes nothing
  // but scheduling (DESIGN.md §9).
  const auto level_pool = [&](const CsrGraph& level) {
    return level.num_vertices() >=
                   static_cast<VertexIndex>(opts.parallel_min_vertices)
               ? pool
               : nullptr;
  };

  // Coarsen until the target size or the matching stalls (e.g. star graphs):
  // coarsening must shrink meaningfully or refinement costs outweigh the
  // benefit. Levels live in a deque, so pointers into it are stable while
  // it grows and storage is reused across calls. A root with a memo
  // coarsens into the memo, and when the memo already holds this graph's
  // coarsening it only re-sums the coarse balance weights and resumes the
  // stream where coarsening left it.
  CoarseHierarchy& h = memo != nullptr ? memo->hierarchy : s.hierarchy;
  auto& levels = s.level_chain;
  levels.clear();
  levels.push_back(&g);
  if (memo != nullptr && MemoHolds(*memo, g, opts)) {
    for (std::size_t li = 0; li < memo->depth; ++li) {
      ResumCoarseBalance(*levels.back(), memo->members[li], h.levels[li]);
      levels.push_back(&h.levels[li]);
    }
    rng = memo->rng;
    ++memo->hits;
  } else {
    std::size_t li = 0;
    while (levels.back()->num_vertices() > opts.coarsen_target) {
      // One span per level, stall checks included; arg = level index.
      obs::TraceSpan coarsen_span("partition.coarsen",
                                  static_cast<std::int64_t>(li));
      if (h.levels.size() <= li) {
        h.levels.emplace_back();
        h.maps.emplace_back();
      }
      CsrGraph& coarse = h.levels[li];
      const CsrGraph& fine = *levels.back();
      HeavyEdgeMatch(fine, level_pool(fine), rng, s);
      ContractByMatching(fine, level_pool(fine), coarse, h.maps[li], s);
      if (coarse.num_vertices() >
          static_cast<VertexIndex>(0.95 * fine.num_vertices())) {
        break;
      }
      if (memo != nullptr) {
        if (memo->members.size() <= li) memo->members.emplace_back();
        RecordClusterMembers(s, memo->members[li]);
      }
      levels.push_back(&coarse);
      ++li;
    }
    if (memo != nullptr) {
      memo->structure = g.structure_stamp();
      memo->seed = opts.seed;
      memo->coarsen_target = opts.coarsen_target;
      memo->depth = li;
      memo->rng = rng;
    }
  }

  // Several growing trials on the coarsest graph; keep the best after a
  // quick refinement.
  const CsrGraph& coarsest = *levels.back();
  const BalanceBounds coarse_bounds(coarsest.total_balance_weight(),
                                    target_fraction, opts.balance_tolerance);
  PartitionOptions quick = opts;
  quick.refine_passes = 2;
  // Trials only rank starting points — the projection sweep below does the
  // real refinement — so cap their hill-climb: on a coarsest graph of ~100
  // vertices a stall budget of 256 means every pass churns the whole graph
  // and rolls most of it back. Never raises the caller's limit.
  quick.fm_stall_limit = std::min(quick.fm_stall_limit, 16);
  double best_cut = 0.0;
  double best_w0 = 0.0;
  bool have_best = false;
  // A trial replaces the best only with a smaller violation or a cut smaller
  // by more than 1e-12. Once the best is balanced and uncut on a coarsest
  // graph without negative arcs, where no cut is below zero, no later trial
  // can win. The trials left would only advance `rng`, whose later draws are
  // the level salts; when `g` fails MultiTrialLevel, so does every coarser
  // level, and no salt is read. Stopping there returns the same partition
  // (DESIGN.md §11). The negative-arc scan runs once, when a candidate
  // first appears.
  const bool salts_read = MultiTrialLevel(n, opts);
  std::optional<bool> negative_arc;
  const int trials = std::max(1, opts.initial_trials);
  int skipped = 0;
  // FmRefine reads only the graph, bounds, options, sides and w0 (it
  // re-initializes every buffer first), so a trial that grows the sides
  // and w0 bits an earlier trial of this bisection grew takes that trial's
  // result and adds its counter increments again (DESIGN.md §11). Growing
  // still runs for every trial, so the stream advances as before.
  const auto cn = static_cast<std::size_t>(coarsest.num_vertices());
  s.grow_trials.clear();
  s.grow_starts.clear();
  s.grow_results.clear();
  FmWork grow_work;
  for (int t = 0; t < trials; ++t) {
    double w0 = 0.0;
    GrowInitialPartition(coarsest, coarse_bounds, rng, s, s.trial_side, &w0);
    const GrowTrial* done = SameGrowStart(s, cn, w0);
    if (done != nullptr) {
      const auto from = static_cast<std::ptrdiff_t>(
          static_cast<std::size_t>(done - s.grow_trials.data()) * cn);
      std::copy(s.grow_results.begin() + from,
                s.grow_results.begin() + from +
                    static_cast<std::ptrdiff_t>(cn),
                s.trial_side.begin());
    } else {
      s.grow_starts.insert(s.grow_starts.end(), s.trial_side.begin(),
                           s.trial_side.end());
      GrowTrial trial;
      trial.start_w0 = w0;
      // FmRefine derives the cut from its Attach scan.
      const FmWork work = FmRefineWork(coarsest, coarse_bounds, quick,
                                       s.trial_side, trial.cut, w0, s);
      trial.w0 = w0;
      trial.arcs_scanned = work.arcs;
      trial.rejections = work.rejections;
      s.grow_trials.push_back(trial);
      s.grow_results.insert(s.grow_results.end(), s.trial_side.begin(),
                            s.trial_side.end());
      done = &s.grow_trials.back();
    }
    const double cut = done->cut;
    w0 = done->w0;
    grow_work.arcs += done->arcs_scanned;
    grow_work.rejections += done->rejections;
    const bool better =
        !have_best ||
        coarse_bounds.Violation(w0) < coarse_bounds.Violation(best_w0) - 1e-12 ||
        (coarse_bounds.Violation(w0) <=
             coarse_bounds.Violation(best_w0) + 1e-12 &&
         cut < best_cut - 1e-12);
    if (better) {
      s.best_side.swap(s.trial_side);
      best_cut = cut;
      best_w0 = w0;
      have_best = true;
    }
    if (!salts_read && coarse_bounds.Violation(best_w0) == 0.0 &&
        best_cut <= 0.0) {
      if (!negative_arc) negative_arc = HasNegativeArc(coarsest);
      if (!*negative_arc) {
        skipped = trials - t - 1;
        break;
      }
    }
  }
  InitialTrialsSkippedCounter().Add(static_cast<std::uint64_t>(skipped));
  CutEdgesCounter().Add(grow_work.arcs);
  FmRejectionsCounter().Add(grow_work.rejections);

  // Project through the hierarchy, refining at every level. Each level
  // draws its refinement salt from the bisection's serial stream, so the
  // per-trial sub-streams are a pure function of (seed, level) — never of
  // scheduling.
  s.side.assign(s.best_side.begin(), s.best_side.end());
  double cut = best_cut;
  double w0 = best_w0;
  for (std::size_t lvl = levels.size() - 1; lvl > 0; --lvl) {
    const CsrGraph& fine = *levels[lvl - 1];
    const auto& map = h.maps[lvl - 1];
    const auto fn = static_cast<std::size_t>(fine.num_vertices());
    s.fine_side.resize(fn);
    for (std::size_t v = 0; v < fn; ++v) {
      s.fine_side[v] = s.side[static_cast<std::size_t>(map[v])];
    }
    s.side.swap(s.fine_side);
    // Projection preserves both tracked quantities algebraically (coarse
    // balance and arc weights are sums of fine ones), so carry them instead
    // of recomputing O(arcs) per level; each level's Attach scan re-prices
    // the cut anyway.
    const BalanceBounds bounds(fine.total_balance_weight(), target_fraction,
                               opts.balance_tolerance);
    const std::uint64_t level_salt = rng.NextU64();
    obs::TraceSpan refine_span("partition.refine",
                               static_cast<std::int64_t>(lvl - 1));
    FmRefineMultiTrial(fine, bounds, opts, level_pool(fine), level_salt,
                       s.side, cut, w0, s);
  }

  const BalanceBounds bounds(g.total_balance_weight(), target_fraction,
                             opts.balance_tolerance);
  side_out.assign(s.side.begin(), s.side.end());
  // The tracked values are exact up to summation order: FM maintains both
  // incrementally and re-prices the cut from a full scan at every level's
  // Attach, so a final O(n + arcs) recompute would only reorder the same
  // sums. Tests compare against from-scratch recomputes with tolerances.
  out.cut_weight = cut;
  out.w0 = w0;
  out.balanced = bounds.Feasible(out.w0);
  return out;
}

}  // namespace

Bisection Bisect(const CsrGraph& g, const PartitionOptions& opts,
                 double target_fraction) {
  GOLDILOCKS_CHECK(target_fraction > 0.0 && target_fraction < 1.0);
  Bisection result;
  const auto n = g.num_vertices();
  result.side.assign(static_cast<std::size_t>(n), 0);
  if (n <= 1) {
    result.side_weight[0] = g.total_balance_weight();
    result.balanced = true;
    return result;
  }

  PartitionScratch scratch;
  CsrBisection bis;
  if (opts.threads > 1) {
    // A standalone bisection owns its pool; the recursive drivers thread
    // theirs through instead. Identical results either way — the pool only
    // changes scheduling, never output (DESIGN.md §9).
    ThreadPool pool(opts.threads);
    bis = BisectCsr(g, opts, target_fraction, &pool, scratch, result.side);
    PublishPoolStats(pool.Stats());
  } else {
    bis = BisectCsr(g, opts, target_fraction, nullptr, scratch, result.side);
  }
  result.cut_weight = bis.cut_weight;
  result.side_weight[0] = bis.w0;
  result.side_weight[1] = g.total_balance_weight() - bis.w0;
  result.balanced = bis.balanced;
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// Recursion over views: one global permutation, and per split the CSR views
// of its children filtered from its own.
//
// `perm` maps position → vertex id; a sub-problem is a contiguous position
// range [lo, hi). Splitting a range stable-partitions its slice of `perm` by
// bisection side, so a child range keeps its parent's relative order. The
// root bisects the input graph itself, and a child's view is its parent's
// view filtered to the child (FilterView): local id i is the i-th vertex of
// the range, so views, demands and records all speak in positions. Each
// task writes only its own ranges of `perm`, and views are private to the
// node (serial) or the frontier entry (parallel) that owns them, so no
// array is shared across ranges (DESIGN.md §9).
// ---------------------------------------------------------------------------
struct RangeCtx {
  const CsrGraph* g = nullptr;
  const PartitionOptions* opts = nullptr;
  const FitPredicate* fits = nullptr;
  const CapacityUnitsFn* units = nullptr;
  // The root split's coarsening, kept by the caller across calls; or null.
  PartitionMemo* memo = nullptr;
  // Whether `g` has an anti-affinity arc. Only then does a fit check read
  // a range's arcs.
  bool negative = false;
  std::vector<VertexIndex> perm;
};

// The view of one child of a split: the rows of `parent`'s vertices that
// `side` puts on side `keep`, in order, each filtered to the arcs whose
// target is on that side too and renumbered to its rank there. A parent
// row is the input row filtered to the parent's range, so this is the input
// row filtered to the child's range, which is what an extraction from the
// input graph would build: the same targets and weights in the same order,
// hence the same degree sums and total balance weight. Sized exactly
// before it is filled.
void FilterView(const CsrGraph& parent, std::span<const std::uint8_t> side,
                std::uint8_t keep, std::vector<VertexIndex>& rank,
                CsrGraph& child) {
  const auto pn = parent.num_vertices();
  GOLDILOCKS_CHECK_EQ(side.size(), static_cast<std::size_t>(pn));
  rank.resize(side.size());
  VertexIndex vertices = 0;
  std::size_t arcs = 0;
  for (VertexIndex v = 0; v < pn; ++v) {
    if (side[static_cast<std::size_t>(v)] != keep) continue;
    rank[static_cast<std::size_t>(v)] = vertices++;
    for (const auto u : parent.arcs(v)) {
      if (side[static_cast<std::size_t>(u)] == keep) ++arcs;
    }
  }
  child.BeginBuild(vertices, arcs);
  for (VertexIndex v = 0; v < pn; ++v) {
    if (side[static_cast<std::size_t>(v)] != keep) continue;
    child.BeginRow(parent.balance_weight(v));
    const auto [to, ws] = parent.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto u = static_cast<std::size_t>(to[i]);
      if (side[u] == keep) child.PushArc(rank[u], ws[i]);
    }
  }
  child.EndBuild();
}

// Demand of a range, summed in position order — the same order the old
// induced-subgraph construction accumulated it in.
Resource RangeDemand(const RangeCtx& ctx, std::size_t lo, std::size_t hi) {
  Resource d;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    d += ctx.g->demand(ctx.perm[pos]);
  }
  return d;
}

// Whether the range [lo, hi) must split. One vertex never does; any other
// range does unless its demand fits and it holds no anti-affinity arc, so
// that replicas end up in different groups (Sec. IV-C). Calls `fits` once.
// `view()` returns the range's view; it is called only when `g` has an
// anti-affinity arc and the demand fits, so that no other range that stays
// whole ever has a view built.
template <typename ViewFn>
bool MustSplit(const RangeCtx& ctx, std::size_t lo, std::size_t hi,
               const Resource& demand, ViewFn&& view) {
  const bool fit = (*ctx.fits)(demand);
  if (hi - lo == 1) return false;
  return !fit || (ctx.negative && HasNegativeArc(view()));
}

// Split target of a range that does not fit: carve off whole server-units
// so leaves fill servers tightly instead of landing at ~50-70% from plain
// halving.
double FitFraction(const RangeCtx& ctx, const Resource& demand) {
  if (!*ctx.units) return 0.5;
  const double u = std::max(1.0 + 1e-9, (*ctx.units)(demand));
  return std::clamp(std::ceil(u / 2.0) / u, 0.25, 0.75);
}

// Bisects the range [lo, hi), whose view is `view`, giving side 0
// `fraction` of its balance weight. Writes each position's side into
// `side`, then stable-partitions the range's slice of `perm` by it. Returns
// the bisection's cut weight; `*mid` is the start of the side-1 child and
// `child_seeds` the children's seed chain (same chain as always). The root
// split coarsens through ctx.memo.
double SplitRange(RangeCtx& ctx, std::size_t lo, std::size_t hi,
                  const CsrGraph& view, double fraction, std::size_t depth,
                  std::uint64_t seed, ThreadPool* pool, PartitionScratch& s,
                  std::vector<std::uint8_t>& side,
                  std::uint64_t child_seeds[2], std::size_t* mid) {
  // One span per recursion level; arg = depth in the recursion tree.
  obs::TraceSpan split_span("partition.split",
                            static_cast<std::int64_t>(depth));
  const std::size_t count = hi - lo;
  GOLDILOCKS_CHECK_EQ(static_cast<std::size_t>(view.num_vertices()), count);
  PartitionOptions sub = *ctx.opts;
  sub.seed = seed;
  PartitionMemo* memo = count == ctx.perm.size() ? ctx.memo : nullptr;
  const auto bis = BisectCsr(view, sub, fraction, pool, s, side, memo);
  SubgraphViewsCounter().Increment();

  // Defensive: if the bisection degenerated (all vertices one side — can
  // happen with pathological weights), force an arbitrary split so the
  // recursion always terminates.
  const auto zeros = static_cast<std::size_t>(
      std::count(side.begin(), side.end(), std::uint8_t{0}));
  if (zeros == 0 || zeros == count) {
    DegenerateSplitsCounter().Increment();
    for (std::size_t i = 0; i < count; ++i) side[i] = i < count / 2 ? 0 : 1;
  }

  // Stable split: side-0 vertices move up in order, side-1 ones follow.
  std::size_t pos = lo;
  s.split_one.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const auto v = ctx.perm[lo + i];
    if (side[i] == 0) {
      ctx.perm[pos++] = v;
    } else {
      s.split_one.push_back(v);
    }
  }
  *mid = pos;
  std::copy(s.split_one.begin(), s.split_one.end(),
            ctx.perm.begin() + static_cast<std::ptrdiff_t>(pos));

  Rng salt(seed);
  child_seeds[0] = salt.NextU64();
  child_seeds[1] = salt.NextU64();
  // Arena accounting once per split (coarse-grained: ~20 capacity sums per
  // bisection, invisible next to the bisection itself).
  if (s.NoteHighWater()) ScratchGrowthCounter().Increment();
  return bis.cut_weight;
}

// The recursion as position-keyed records, appended in whatever order its
// nodes run. Each node owns one contiguous range of `perm`: a leaf's range
// is a group reached by `path`, and a split bisected the range that starts
// at `lo`, `depth` levels down.
struct Leaf {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::string path;
};
struct Split {
  std::size_t lo = 0;
  std::size_t depth = 0;
  double cut = 0.0;
};
struct Records {
  std::vector<Leaf> leaves;
  std::vector<Split> splits;
};

// The scratch slot of recursion depth `depth` (PartitionScratch::depths).
RecursionDepth& DepthSlot(PartitionScratch& s, std::size_t depth) {
  if (s.depths.size() <= depth) s.depths.resize(depth + 1);
  return s.depths[depth];
}

// Serial recursion below the range [lo, hi), which must split and whose
// view is `view`. A child's view is filtered into this depth's slot only
// when the child needs it, the right child's after the left subtree has
// returned, so at most one view per depth is alive.
void SplitRecurse(RangeCtx& ctx, std::size_t lo, std::size_t hi,
                  const std::string& path, std::uint64_t seed,
                  const Resource& demand, const CsrGraph& view,
                  PartitionScratch& s, Records& rec) {
  const std::size_t depth = path.size();
  RecursionDepth& slot = DepthSlot(s, depth);
  std::size_t mid = lo;
  std::uint64_t child_seeds[2];
  // Serial subtrees never see the pool: a worker task re-entering the pool
  // would deadlock, and the frontier already carries the parallelism.
  rec.splits.push_back(
      {lo, depth,
       SplitRange(ctx, lo, hi, view, FitFraction(ctx, demand), depth, seed,
                  /*pool=*/nullptr, s, slot.side, child_seeds, &mid)});
  const std::size_t bound[3] = {lo, mid, hi};
  for (std::uint8_t c = 0; c < 2; ++c) {
    const Resource child_demand = RangeDemand(ctx, bound[c], bound[c + 1]);
    bool built = false;
    const auto child_view = [&]() -> const CsrGraph& {
      if (!built) FilterView(view, slot.side, c, s.view_rank, slot.child);
      built = true;
      return slot.child;
    };
    std::string child_path = path + static_cast<char>('0' + c);
    if (MustSplit(ctx, bound[c], bound[c + 1], child_demand, child_view)) {
      SplitRecurse(ctx, bound[c], bound[c + 1], child_path, child_seeds[c],
                   child_demand, child_view(), s, rec);
    } else {
      rec.leaves.push_back({bound[c], bound[c + 1], std::move(child_path)});
    }
  }
}

// Builds the result from records in any order. A node's subtree lies
// inside its range; its left child starts at the same `lo` one level
// deeper and its right child at the split point. So ascending `lo` is the
// leaves' preorder and ascending (lo, depth) the splits', and numbering the
// groups and left-folding the cuts in that order reproduces the serial
// recursion bit for bit, whichever thread recorded what (DESIGN.md §9).
void Assemble(const RangeCtx& ctx, Records& rec,
              RecursivePartitionResult& out) {
  std::sort(rec.leaves.begin(), rec.leaves.end(),
            [](const Leaf& a, const Leaf& b) { return a.lo < b.lo; });
  std::sort(rec.splits.begin(), rec.splits.end(),
            [](const Split& a, const Split& b) {
              return a.lo != b.lo ? a.lo < b.lo : a.depth < b.depth;
            });
  for (Leaf& leaf : rec.leaves) {
    for (std::size_t pos = leaf.lo; pos < leaf.hi; ++pos) {
      out.group_of[static_cast<std::size_t>(ctx.perm[pos])] = out.num_groups;
    }
    ++out.num_groups;
    out.group_path.push_back(std::move(leaf.path));
  }
  for (const Split& split : rec.splits) out.cut_weight += split.cut;
}

// Parallel driver: expands the top of the recursion breadth-first —
// splitting every range of the frontier that must split, each round's
// splits running concurrently on disjoint position ranges — until the
// frontier carries at least 4 × opts.threads ranges, then solves each
// frontier subtree serially on the pool. Each frontier entry carries its
// own view (the root's is the input graph) and its verdict, so `fits` runs
// once per range as in the serial recursion. Every concurrent unit records
// into its own slot and gets its own scratch arena; results don't depend on
// arena history (DESIGN.md §11).
void RecurseParallel(RangeCtx& ctx, const Resource& root_demand,
                     Records& rec) {
  const std::size_t n = ctx.perm.size();
  obs::TraceSpan span("partition.parallel", static_cast<std::int64_t>(n));
  const PartitionOptions& opts = *ctx.opts;
  struct Pending {
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::string path;
    std::uint64_t seed = 0;
    Resource demand;
    bool must_split = false;
    CsrGraph view;  // set when the range must split, except at the root
  };
  const auto view_of = [&](const Pending& nd) -> const CsrGraph& {
    return nd.hi - nd.lo == n ? *ctx.g : nd.view;
  };

  ThreadPool pool(opts.threads);
  std::size_t scratch_peak = 0;  // max arena high-water over all arenas
  // Pending ranges, left to right; the root's split is the first round.
  std::vector<Pending> frontier(1);
  frontier[0] = {0, n, "", opts.seed, root_demand, true, {}};

  // Oversubscribe the frontier 4×: worker subtrees differ wildly in cost,
  // and more, smaller subtrees let fast lanes keep absorbing work instead
  // of idling behind the largest one. Expansion depth is result-neutral —
  // seeds derive from the recursion path and Assemble orders the records
  // by position — so the target only shapes scheduling.
  while (static_cast<int>(frontier.size()) < 4 * opts.threads) {
    std::vector<std::size_t> splittable;
    for (std::size_t k = 0; k < frontier.size(); ++k) {
      if (frontier[k].must_split) splittable.push_back(k);
    }
    if (splittable.empty()) break;

    // Split j records its cut in cuts[j] and its halves in halves[2j, 2j+1].
    std::vector<Split> cuts(splittable.size());
    std::vector<Pending> halves(2 * splittable.size());
    std::vector<PartitionScratch> scratch(splittable.size());
    const auto split = [&](std::size_t j, ThreadPool* inner) {
      const Pending& nd = frontier[splittable[j]];
      const CsrGraph& view = view_of(nd);
      PartitionScratch& s = scratch[j];
      std::vector<std::uint8_t>& side = DepthSlot(s, 0).side;
      std::size_t mid = nd.lo;
      std::uint64_t child_seeds[2];
      cuts[j] = {nd.lo, nd.path.size(),
                 SplitRange(ctx, nd.lo, nd.hi, view,
                            FitFraction(ctx, nd.demand), nd.path.size(),
                            nd.seed, inner, s, side, child_seeds, &mid)};
      const std::size_t bound[3] = {nd.lo, mid, nd.hi};
      for (std::uint8_t c = 0; c < 2; ++c) {
        Pending& half = halves[2 * j + c];
        half.lo = bound[c];
        half.hi = bound[c + 1];
        half.path = nd.path + static_cast<char>('0' + c);
        half.seed = child_seeds[c];
        half.demand = RangeDemand(ctx, half.lo, half.hi);
        bool built = false;
        const auto child_view = [&]() -> const CsrGraph& {
          if (!built) FilterView(view, side, c, s.view_rank, half.view);
          built = true;
          return half.view;
        };
        half.must_split = MustSplit(ctx, half.lo, half.hi, half.demand,
                                    child_view);
        if (half.must_split) {
          child_view();
        } else {
          half.view = CsrGraph();  // it served the anti-affinity check only
        }
      }
    };
    if (splittable.size() == 1) {
      // A lone split — the root's among them, where the whole-graph
      // bisection is the serial wall — runs on the calling thread with the
      // pool inside the bisection (calling it from a pool task would
      // re-enter ParallelFor); with several, the splits themselves are the
      // parallelism. So the root's split, the only one that touches
      // ctx.memo, always runs on the caller's thread.
      split(0, &pool);
    } else {
      pool.ParallelFor(splittable.size(),
                       [&](std::size_t j) { split(j, /*inner=*/nullptr); });
    }
    for (const auto& s : scratch) {
      scratch_peak = std::max(scratch_peak, s.peak_bytes);
    }
    rec.splits.insert(rec.splits.end(), cuts.begin(), cuts.end());

    // Each split's two halves take its frontier slot, in order.
    std::vector<Pending> next;
    for (std::size_t k = 0, j = 0; k < frontier.size(); ++k) {
      if (j < splittable.size() && splittable[j] == k) {
        next.push_back(std::move(halves[2 * j]));
        next.push_back(std::move(halves[2 * j + 1]));
        ++j;
      } else {
        next.push_back(std::move(frontier[k]));
      }
    }
    frontier = std::move(next);
  }

  // Solve each frontier subtree serially, into slot-local records.
  std::vector<Records> slots(frontier.size());
  std::vector<PartitionScratch> scratch(frontier.size());
  pool.ParallelFor(frontier.size(), [&](std::size_t k) {
    // Per-worker subtree span; arg = frontier slot (stable across runs).
    obs::TraceSpan worker_span("partition.worker",
                               static_cast<std::int64_t>(k));
    const Pending& nd = frontier[k];
    if (nd.must_split) {
      SplitRecurse(ctx, nd.lo, nd.hi, nd.path, nd.seed, nd.demand,
                   view_of(nd), scratch[k], slots[k]);
    } else {
      slots[k].leaves.push_back({nd.lo, nd.hi, nd.path});
    }
  });
  for (std::size_t k = 0; k < frontier.size(); ++k) {
    scratch_peak = std::max(scratch_peak, scratch[k].peak_bytes);
    for (Leaf& leaf : slots[k].leaves) rec.leaves.push_back(std::move(leaf));
    rec.splits.insert(rec.splits.end(), slots[k].splits.begin(),
                      slots[k].splits.end());
  }
  PublishScratchPeak(scratch_peak, ctx.memo);
  PublishPoolStats(pool.Stats());
}

void InitRangeCtx(RangeCtx& ctx, const CsrGraph& g,
                  const PartitionOptions& opts) {
  ctx.g = &g;
  ctx.opts = &opts;
  ctx.perm.resize(static_cast<std::size_t>(g.num_vertices()));
  std::iota(ctx.perm.begin(), ctx.perm.end(), 0);
}

// k-way recursion over the same views: the range [lo, hi), whose view is
// `view`, becomes groups [first_group, first_group + k).
void KWayRecurse(RangeCtx& ctx, std::size_t lo, std::size_t hi, int k,
                 int first_group, std::size_t depth, std::uint64_t seed,
                 const CsrGraph& view, PartitionScratch& s,
                 KWayResult& out) {
  if (k == 1 || hi - lo <= 1) {
    for (std::size_t pos = lo; pos < hi; ++pos) {
      out.group_of[static_cast<std::size_t>(ctx.perm[pos])] = first_group;
    }
    return;
  }
  RecursionDepth& slot = DepthSlot(s, depth);
  const int k0 = (k + 1) / 2;
  std::size_t mid = lo;
  std::uint64_t child_seeds[2];
  out.cut_weight +=
      SplitRange(ctx, lo, hi, view,
                 static_cast<double>(k0) / static_cast<double>(k), depth,
                 seed, /*pool=*/nullptr, s, slot.side, child_seeds, &mid);
  const std::size_t bound[3] = {lo, mid, hi};
  const int parts[2] = {k0, k - k0};
  const int first[2] = {first_group, first_group + k0};
  for (std::uint8_t c = 0; c < 2; ++c) {
    // A child that stays whole needs no view.
    if (parts[c] > 1 && bound[c + 1] - bound[c] > 1) {
      FilterView(view, slot.side, c, s.view_rank, slot.child);
    }
    KWayRecurse(ctx, bound[c], bound[c + 1], parts[c], first[c], depth + 1,
                child_seeds[c], slot.child, s, out);
  }
}

}  // namespace

KWayResult KWayPartition(const CsrGraph& g, int k,
                         const PartitionOptions& opts) {
  GOLDILOCKS_CHECK_GE(k, 1);
  KWayResult out;
  out.num_groups = k;
  out.group_of.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  RangeCtx ctx;
  InitRangeCtx(ctx, g, opts);
  PartitionScratch scratch;
  KWayRecurse(ctx, 0, static_cast<std::size_t>(g.num_vertices()), k, 0,
              /*depth=*/0, opts.seed, g, scratch, out);
  if (opts.kway_refine_passes > 0 && k > 1) {
    RefineKWay(g, out.group_of, k, opts);
    out.cut_weight = g.CutWeightKWay(out.group_of);
  }
  return out;
}

double RefineKWay(const CsrGraph& g, std::vector<int>& group_of, int k,
                  const PartitionOptions& opts) {
  GOLDILOCKS_CHECK(group_of.size() ==
                   static_cast<std::size_t>(g.num_vertices()));
  if (k <= 1 || g.num_vertices() == 0) return 0.0;

  // Balance bookkeeping: each group may carry up to (1 + tol) of its
  // proportional share, and no move may empty a group.
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const int gid = group_of[static_cast<std::size_t>(v)];
    GOLDILOCKS_CHECK(gid >= 0 && gid < k);
    weight[static_cast<std::size_t>(gid)] += g.balance_weight(v);
    ++count[static_cast<std::size_t>(gid)];
  }
  double max_bw = 0.0;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    max_bw = std::max(max_bw, g.balance_weight(v));
  }
  // One-vertex slack on top of the tolerance: without it, greedy single
  // moves can never perform the two-step swaps FM achieves via rollback.
  const double cap = g.total_balance_weight() / k *
                         (1.0 + opts.balance_tolerance) +
                     max_bw;

  Rng rng(opts.seed ^ 0x4b57);
  std::vector<VertexIndex> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), 0);

  double improvement = 0.0;
  // Attachment of v to each adjacent group: flat timestamped accumulation,
  // visited in first-touch order — no clearing loop, no sort.
  GroupAccumulator attach;
  for (int pass = 0; pass < opts.kway_refine_passes; ++pass) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    bool moved_any = false;
    for (const auto v : order) {
      const int own = group_of[static_cast<std::size_t>(v)];
      if (count[static_cast<std::size_t>(own)] <= 1) continue;
      attach.Reset(static_cast<std::size_t>(k));
      const auto [to, ws] = g.arc_range(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        attach.Add(group_of[static_cast<std::size_t>(to[i])], ws[i]);
      }
      const double own_w = attach.Get(own);
      int best = -1;
      double best_gain = 1e-9;
      for (const int ng : attach.touched()) {
        if (ng == own) continue;
        const double gain = attach.Get(ng) - own_w;
        if (gain > best_gain &&
            weight[static_cast<std::size_t>(ng)] + g.balance_weight(v) <=
                cap) {
          best = ng;
          best_gain = gain;
        }
      }
      if (best >= 0) {
        group_of[static_cast<std::size_t>(v)] = best;
        weight[static_cast<std::size_t>(own)] -= g.balance_weight(v);
        weight[static_cast<std::size_t>(best)] += g.balance_weight(v);
        --count[static_cast<std::size_t>(own)];
        ++count[static_cast<std::size_t>(best)];
        improvement += best_gain;
        moved_any = true;
      }
    }
    if (!moved_any) break;
  }
  return improvement;
}

RecursivePartitionResult RecursivePartition(const CsrGraph& g,
                                            const FitPredicate& fits,
                                            const PartitionOptions& opts,
                                            const CapacityUnitsFn& units,
                                            PartitionMemo* memo) {
  obs::TraceSpan span("partition.recursive",
                      static_cast<std::int64_t>(g.num_vertices()));
  RecursivePartitionResult out;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  out.group_of.assign(n, -1);
  if (n == 0) return out;

  RangeCtx ctx;
  InitRangeCtx(ctx, g, opts);
  ctx.fits = &fits;
  ctx.units = &units;
  ctx.memo = memo;
  ctx.negative = HasNegativeArc(g);
  Records rec;
  const Resource demand = RangeDemand(ctx, 0, n);
  if (!MustSplit(ctx, 0, n, demand,
                 [&]() -> const CsrGraph& { return g; })) {
    rec.leaves.push_back({0, n, ""});
  } else if (opts.threads > 1) {
    RecurseParallel(ctx, demand, rec);
  } else {
    PartitionScratch scratch;
    SplitRecurse(ctx, 0, n, "", opts.seed, demand, g, scratch, rec);
    PublishScratchPeak(scratch.peak_bytes, memo);
  }
  Assemble(ctx, rec, out);
  return out;
}

}  // namespace gl
