#include "graph/coarsen.h"

#include <algorithm>

#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace gl {
namespace {

constexpr VertexIndex kNoMatch = -1;

// Propose/resolve rounds before the serial cleanup sweep. Each round
// matches a large fraction of the remaining vertices (mutual heaviest-edge
// proposals), so a small constant covers all but a tail the sweep absorbs;
// the count is part of the deterministic contract — changing it changes
// matchings — so it is fixed here, not an option.
constexpr int kProposeRounds = 4;

// Symmetric per-level preference jitter. Mutual-heaviest matching is fully
// determined by the edge weights, so every level and every sub-split of the
// recursion repeats the same pairings and the hierarchy compounds their
// cost — measured ~6% worse final cuts than the old random-order greedy
// sweep on the clustered bench graphs. Scaling each edge's preference by a
// hash of (level salt, endpoints) restores that decorrelation while keeping
// the propose/resolve rounds parallel: the factor is symmetric in (u, v),
// so both endpoints rank the edge identically and mutual resolution stays
// consistent. The true weight still dominates — the factor spans
// [0.75, 1.25), enough to re-shuffle near-equal heavy edges, never enough
// to prefer a far lighter one.
double JitteredWeight(double w, VertexIndex a, VertexIndex b,
                      std::uint64_t salt) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  std::uint64_t x = salt ^ (lo * 0x9E3779B97F4A7C15ull + hi);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  const double u01 = static_cast<double>(x >> 11) * 0x1.0p-53;
  return w * (0.75 + 0.5 * u01);
}

// v's most-preferred positive-weight unmatched neighbor (jittered weight,
// ties to the smallest id); kNoMatch when every neighbor is matched or
// non-positive. `match` is the state frozen at round start (or live during
// the serial sweep — the caller guarantees no concurrent writes either
// way).
VertexIndex BestUnmatchedNeighbor(const CsrGraph& g, VertexIndex v,
                                  const std::vector<VertexIndex>& match,
                                  std::uint64_t salt) {
  VertexIndex best = kNoMatch;
  double best_w = 0.0;
  const auto [to, ws] = g.arc_range(v);
  for (std::size_t i = 0; i < to.size(); ++i) {
    const auto u = to[i];
    if (ws[i] <= 0.0 || u == v ||
        match[static_cast<std::size_t>(u)] != kNoMatch) {
      continue;
    }
    const double w = JitteredWeight(ws[i], v, u, salt);
    if (w > best_w || (w == best_w && (best == kNoMatch || u < best))) {
      best = u;
      best_w = w;
    }
  }
  return best;
}

}  // namespace

void ForPartitionChunks(
    ThreadPool* pool, std::size_t total,
    const std::function<void(int slot, std::size_t begin, std::size_t end)>&
        fn) {
  if (total == 0) return;
  // Every chunk runs under a partition.chunk span, in the serial branch
  // too: chunking is fixed-grain (DESIGN.md §9), so the span shape — names,
  // counts, args — is identical at every thread width, and the profiler
  // (obs/profile.h) sees the chunk-level fan-out instead of crediting a
  // whole chunked pass to the enclosing span as serial self-time.
  if (pool == nullptr) {
    for (std::size_t begin = 0; begin < total;
         begin += kPartitionChunkGrain) {
      obs::TraceSpan span(
          "partition.chunk",
          static_cast<std::int64_t>(begin / kPartitionChunkGrain));
      fn(0, begin, std::min(total, begin + kPartitionChunkGrain));
    }
    return;
  }
  pool->ParallelForChunked(
      total, kPartitionChunkGrain,
      [&fn](int slot, std::size_t begin, std::size_t end) {
        obs::TraceSpan span(
            "partition.chunk",
            static_cast<std::int64_t>(begin / kPartitionChunkGrain),
            /*parallel_lane=*/true);
        fn(slot, begin, end);
      });
}

void HeavyEdgeMatch(const CsrGraph& g, ThreadPool* pool, Rng& rng,
                    PartitionScratch& s) {
  obs::TraceSpan span("partition.coarsen.match",
                      static_cast<std::int64_t>(g.num_vertices()));
  const auto n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);
  s.match.assign(sn, kNoMatch);
  s.propose.assign(sn, kNoMatch);
  // Deterministic per-level random sweep order for the serial cleanup.
  // Drawn from the bisection's own stream exactly once per level,
  // identically at every thread width.
  s.order.resize(sn);
  std::iota(s.order.begin(), s.order.end(), 0);
  for (std::size_t i = sn; i > 1; --i) {
    std::swap(s.order[i - 1], s.order[rng.NextBelow(i)]);
  }
  // One preference salt per level, drawn right after the shuffle — both come
  // from the bisection's own stream, identically at every thread width.
  const std::uint64_t salt = rng.NextU64();

  for (int round = 0; round < kProposeRounds; ++round) {
    // Propose: reads only the match state frozen at round start, writes only
    // the vertex's own propose slot — race-free by construction. A matched
    // vertex clears its slot so stale proposals from earlier rounds cannot
    // resolve against it.
    ForPartitionChunks(pool, sn,
                       [&](int, std::size_t begin, std::size_t end) {
                         for (std::size_t sv = begin; sv < end; ++sv) {
                           GOLDILOCKS_CHECK(sv < sn);
                           s.propose[sv] =
                               s.match[sv] != kNoMatch
                                   ? kNoMatch
                                   : BestUnmatchedNeighbor(
                                         g, static_cast<VertexIndex>(sv),
                                         s.match, salt);
                         }
                       });
    // Resolve: the propose array is immutable here and every vertex writes
    // only its own match slot, so mutual pairs lock in without contention.
    // Any vertex proposed to was unmatched at round start, hence recomputed
    // its own proposal this round — no stale cross-round pairing exists.
    // A vertex with nothing to propose retires as a singleton right here:
    // neighbors only ever become *more* matched, so a vertex that cannot
    // match now never will, and retiring it keeps hubs with fully-matched
    // neighborhoods from rescanning their whole row every round.
    ForPartitionChunks(
        pool, sn, [&](int, std::size_t begin, std::size_t end) {
          for (std::size_t sv = begin; sv < end; ++sv) {
            GOLDILOCKS_CHECK(sv < sn);
            if (s.match[sv] != kNoMatch) continue;
            const auto u = s.propose[sv];
            if (u == kNoMatch) {
              s.match[sv] = static_cast<VertexIndex>(sv);
            } else if (s.propose[static_cast<std::size_t>(u)] ==
                       static_cast<VertexIndex>(sv)) {
              s.match[sv] = u;
            }
          }
        });
  }

  // Serial cleanup: greedy over the unmatched tail (vertices whose
  // proposals never went mutual), visited in the level's random sweep
  // order. The randomized order de-correlates the tail pairings across
  // levels and sub-splits — with a fixed ascending sweep the same
  // systematic pairings recur at every level and the multilevel hierarchy
  // compounds their cost (measured ~6% worse final cuts on the clustered
  // bench graphs).
  for (const auto v : s.order) {
    const auto sv = static_cast<std::size_t>(v);
    if (s.match[sv] != kNoMatch) continue;
    const auto best = BestUnmatchedNeighbor(g, v, s.match, salt);
    if (best != kNoMatch) {
      s.match[sv] = best;
      s.match[static_cast<std::size_t>(best)] = v;
    } else {
      s.match[sv] = v;  // stays a singleton
    }
  }

  // Absorption: each remaining singleton joins the cluster of its heaviest
  // positively-adjacent *paired* neighbor (ties to the smallest id). On
  // star-like rows — common in service graphs, where pairwise matching
  // strands every leaf but one — this collapses the whole tail in a single
  // level instead of shedding one pair per hub per level, which is what let
  // coarsening stall thousands of vertices above the target. Two final
  // singletons are never adjacent (the cleanup sweep would have paired
  // them), so restricting targets to paired vertices rules out absorption
  // chains by construction; the pass reads only the settled match array and
  // writes each vertex's own absorb slot — deterministic and race-free at
  // any width.
  s.absorb.assign(sn, kNoMatch);
  ForPartitionChunks(pool, sn, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t sv = begin; sv < end; ++sv) {
      GOLDILOCKS_CHECK(sv < sn);
      if (s.match[sv] != static_cast<VertexIndex>(sv)) continue;
      const auto v = static_cast<VertexIndex>(sv);
      VertexIndex best = kNoMatch;
      double best_w = 0.0;
      const auto [to, ws] = g.arc_range(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        const auto u = to[i];
        if (ws[i] <= 0.0 || u == v) continue;
        if (s.match[static_cast<std::size_t>(u)] == u) continue;  // singleton
        const double w = JitteredWeight(ws[i], v, u, salt);
        if (w > best_w || (w == best_w && (best == kNoMatch || u < best))) {
          best = u;
          best_w = w;
        }
      }
      s.absorb[sv] = best;
    }
  });
}

void ContractByMatching(const CsrGraph& fine, ThreadPool* pool,
                        CsrGraph& coarse,
                        std::vector<VertexIndex>& fine_to_coarse,
                        PartitionScratch& s) {
  obs::TraceSpan span("partition.coarsen.contract",
                      static_cast<std::int64_t>(fine.num_vertices()));
  const auto n = fine.num_vertices();
  const auto sn = static_cast<std::size_t>(n);

  // Serial coarse numbering: clusters are numbered in the level's random
  // sweep order (s.order, fixed by HeavyEdgeMatch), one id per matched pair
  // / non-absorbed singleton; rep[c] is the first-visited endpoint. The
  // randomized numbering matters for quality, not just the cleanup sweep:
  // coarse ids feed the next level's seed growing and every min-id
  // tie-break, and numbering ascending by fine id keeps those choices
  // correlated across levels (measured ~6% worse final cuts on the
  // clustered bench graphs). Absorbed singletons create no id of their own;
  // a second sweep maps them onto their target's cluster — the target is
  // always paired, so its id already exists.
  fine_to_coarse.assign(sn, -1);
  s.rep.clear();
  for (const auto v : s.order) {
    const auto sv = static_cast<std::size_t>(v);
    if (fine_to_coarse[sv] >= 0 || s.absorb[sv] != -1) continue;
    const auto m = s.match[sv];
    GOLDILOCKS_CHECK(s.rep.size() < sn);
    const auto c = static_cast<VertexIndex>(s.rep.size());
    fine_to_coarse[sv] = c;
    if (m != v) fine_to_coarse[static_cast<std::size_t>(m)] = c;
    s.rep.push_back(v);
  }
  const std::size_t snc = s.rep.size();
  for (VertexIndex v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (s.absorb[sv] != -1) {
      fine_to_coarse[sv] =
          fine_to_coarse[static_cast<std::size_t>(s.absorb[sv])];
    }
  }

  // Absorbed members grouped by cluster via a counting sort keyed on the
  // coarse id; filling in ascending fine-id order makes each cluster's
  // member list ascending — one canonical emission order at every width.
  s.mem_off.assign(snc + 1, 0);
  for (std::size_t sv = 0; sv < sn; ++sv) {
    if (s.absorb[sv] != -1) {
      ++s.mem_off[static_cast<std::size_t>(fine_to_coarse[sv]) + 1];
    }
  }
  for (std::size_t c = 0; c < snc; ++c) s.mem_off[c + 1] += s.mem_off[c];
  s.mem.resize(s.mem_off[snc]);
  s.mem_fill.assign(snc, 0);
  for (VertexIndex v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (s.absorb[sv] == -1) continue;
    const auto c = static_cast<std::size_t>(fine_to_coarse[sv]);
    s.mem[s.mem_off[c] + s.mem_fill[c]++] = v;
  }

  // Padded staging offsets from per-row degree upper bounds (a cluster's
  // merged row can't exceed the sum of its members' fine degrees).
  s.pad_off.resize(snc + 1);
  s.pad_off[0] = 0;
  for (std::size_t c = 0; c < snc; ++c) {
    const auto v = s.rep[c];
    const auto m = s.match[static_cast<std::size_t>(v)];
    std::size_t ub = fine.arcs(v).size();
    if (m != v) ub += fine.arcs(m).size();
    for (std::size_t i = s.mem_off[c]; i < s.mem_off[c + 1]; ++i) {
      ub += fine.arcs(s.mem[i]).size();
    }
    s.pad_off[c + 1] = s.pad_off[c] + ub;
  }
  s.pad_col.resize(s.pad_off[snc]);
  s.pad_w.resize(s.pad_off[snc]);
  s.row_count.resize(snc);
  s.row_balance.resize(snc);
  s.row_deg.resize(snc);
  s.row_off.resize(snc + 1);

  const auto slots =
      static_cast<std::size_t>(pool != nullptr ? pool->num_threads() : 1);
  if (s.dedup.size() < slots) s.dedup.resize(slots);

  // Pass A: stage every coarse row into its padded span. Rows own disjoint
  // spans and each slot's merge accumulator is Reset per row, so concurrent
  // chunks never interact; first-touch order within a row depends only on
  // the members' fine CSR scan order — never on scheduling.
  ForPartitionChunks(pool, snc, [&](int slot, std::size_t begin,
                                    std::size_t end) {
    auto& acc = s.dedup[static_cast<std::size_t>(slot)];
    for (std::size_t c = begin; c < end; ++c) {
      const auto v = s.rep[c];
      const auto m = s.match[static_cast<std::size_t>(v)];
      acc.Reset(snc);
      const auto emit = [&](VertexIndex x) {
        const auto [to, ws] = fine.arc_range(x);
        for (std::size_t i = 0; i < to.size(); ++i) {
          const auto cu = fine_to_coarse[static_cast<std::size_t>(to[i])];
          if (cu != static_cast<VertexIndex>(c)) acc.Add(cu, ws[i]);
        }
      };
      emit(v);
      if (m != v) emit(m);
      double bw = fine.balance_weight(v);
      if (m != v) bw += fine.balance_weight(m);
      for (std::size_t i = s.mem_off[c]; i < s.mem_off[c + 1]; ++i) {
        emit(s.mem[i]);
        bw += fine.balance_weight(s.mem[i]);
      }
      std::size_t k = s.pad_off[c];
      double degree = 0.0;  // summed in emission order, as EndBuild would
      for (const int cu : acc.touched()) {
        const double w = acc.Get(cu);
        s.pad_col[k] = static_cast<VertexIndex>(cu);
        s.pad_w[k] = w;
        degree += w;
        ++k;
      }
      s.row_count[c] = k - s.pad_off[c];
      s.row_balance[c] = bw;
      s.row_deg[c] = degree;
    }
  });

  // Serial exact prefix sum over the staged row lengths, then pack.
  s.row_off[0] = 0;
  for (std::size_t c = 0; c < snc; ++c) {
    s.row_off[c + 1] = s.row_off[c] + s.row_count[c];
  }

  coarse.BeginIndexedBuild(static_cast<VertexIndex>(snc), s.row_off[snc]);
  // Pass B: disjoint-slot copies into the exact CSR arrays.
  ForPartitionChunks(pool, snc,
                     [&](int, std::size_t begin, std::size_t end) {
                       for (std::size_t c = begin; c < end; ++c) {
                         const auto cv = static_cast<VertexIndex>(c);
                         coarse.SetRowOffset(cv, s.row_off[c]);
                         coarse.SetVertex(cv, s.row_balance[c], s.row_deg[c]);
                         for (std::size_t i = 0; i < s.row_count[c]; ++i) {
                           coarse.SetArc(s.row_off[c] + i,
                                         s.pad_col[s.pad_off[c] + i],
                                         s.pad_w[s.pad_off[c] + i]);
                         }
                       }
                     });
  coarse.EndIndexedBuild();
}

void RecordClusterMembers(const PartitionScratch& s, ClusterMembers& out) {
  const std::size_t snc = s.rep.size();
  out.off.resize(snc + 1);
  out.ids.clear();
  for (std::size_t c = 0; c < snc; ++c) {
    out.off[c] = out.ids.size();
    const auto v = s.rep[c];
    const auto m = s.match[static_cast<std::size_t>(v)];
    out.ids.push_back(v);
    if (m != v) out.ids.push_back(m);
    for (std::size_t i = s.mem_off[c]; i < s.mem_off[c + 1]; ++i) {
      out.ids.push_back(s.mem[i]);
    }
  }
  out.off[snc] = out.ids.size();
}

void ResumCoarseBalance(const CsrGraph& fine, const ClusterMembers& members,
                        CsrGraph& coarse) {
  GOLDILOCKS_CHECK_EQ(members.off.size(),
                      static_cast<std::size_t>(coarse.num_vertices()) + 1);
  for (VertexIndex c = 0; c < coarse.num_vertices(); ++c) {
    const auto sc = static_cast<std::size_t>(c);
    std::size_t i = members.off[sc];
    double bw = fine.balance_weight(members.ids[i]);
    for (++i; i < members.off[sc + 1]; ++i) {
      bw += fine.balance_weight(members.ids[i]);
    }
    coarse.SetBalanceWeight(c, bw);
  }
  coarse.EndColumnRefresh();
}

}  // namespace gl
