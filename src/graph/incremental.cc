#include "graph/incremental.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "graph/scratch.h"

namespace gl {
namespace {

// Working state: group membership plus per-group aggregates.
struct State {
  std::vector<int> group_of;          // per vertex, -1 = unassigned
  std::vector<Resource> demand;       // per group
  std::vector<int> count;             // per group
  std::vector<std::uint8_t> retired;  // group ids freed by emptying

  int NewGroup() {
    demand.emplace_back();
    count.push_back(0);
    retired.push_back(0);
    return static_cast<int>(demand.size()) - 1;
  }

  void Assign(const CsrGraph& g, VertexIndex v, int to) {
    const int from = group_of[static_cast<std::size_t>(v)];
    if (from == to) return;
    if (from >= 0) {
      demand[static_cast<std::size_t>(from)] -= g.demand(v);
      if (--count[static_cast<std::size_t>(from)] == 0) {
        retired[static_cast<std::size_t>(from)] = 1;
      }
    }
    group_of[static_cast<std::size_t>(v)] = to;
    demand[static_cast<std::size_t>(to)] += g.demand(v);
    ++count[static_cast<std::size_t>(to)];
    retired[static_cast<std::size_t>(to)] = 0;
  }
};

// Attachment weight of v to each neighbouring group (positive edges pull,
// negative anti-affinity edges push), accumulated into the caller's flat
// timestamped scratch (graph/scratch.h): O(deg) with an O(1) reset, no hash
// map, no sort. The best-group scans below break weight ties by taking the
// first candidate seen, so the iteration order is part of the algorithm —
// first-touch order follows the adjacency list, which is deterministic by
// construction.
void AccumulateNeighborGroups(const CsrGraph& g, const State& s,
                              VertexIndex v, GroupAccumulator& acc) {
  acc.Reset(s.demand.size());
  const auto [to, ws] = g.arc_range(v);
  for (std::size_t i = 0; i < to.size(); ++i) {
    const int ng = s.group_of[static_cast<std::size_t>(to[i])];
    if (ng >= 0) acc.Add(ng, ws[i]);
  }
}

}  // namespace

IncrementalResult IncrementalRepartition(const CsrGraph& g,
                                         std::span<const int> previous,
                                         const FitPredicate& fits,
                                         const IncrementalOptions& opts) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  GOLDILOCKS_CHECK(previous.size() == n);
  Rng rng(opts.partition.seed ^ 0x12cULL);

  // --- adopt the previous assignment (remapping sparse old ids) -------------
  State s;
  s.group_of.assign(n, -1);
  std::unordered_map<int, int> old_to_new;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const int old = previous[static_cast<std::size_t>(v)];
    if (old < 0) continue;
    auto it = old_to_new.find(old);
    if (it == old_to_new.end()) {
      it = old_to_new.emplace(old, s.NewGroup()).first;
    }
    s.Assign(g, v, it->second);
  }

  // --- place vertices that are new this epoch --------------------------------
  GroupAccumulator acc;  // reused for every attachment scan below
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    if (s.group_of[static_cast<std::size_t>(v)] >= 0) continue;
    AccumulateNeighborGroups(g, s, v, acc);
    int best = -1;
    double best_w = 0.0;
    for (const int ng : acc.touched()) {
      const double w = acc.Get(ng);
      if (w <= best_w) continue;
      const Resource after = s.demand[static_cast<std::size_t>(ng)] +
                             g.demand(v);
      if (fits(after)) {
        best = ng;
        best_w = w;
      }
    }
    s.Assign(g, v, best >= 0 ? best : s.NewGroup());
  }

  // --- restore feasibility -----------------------------------------------------
  // Shed boundary vertices from overfull groups into fitting neighbours;
  // split what cannot be repaired by shedding.
  auto group_feasible = [&](int gid) {
    return fits(s.demand[static_cast<std::size_t>(gid)]) ||
           s.count[static_cast<std::size_t>(gid)] <= 1;
  };
  for (int pass = 0; pass < 3; ++pass) {
    bool any_infeasible = false;
    for (int gid = 0; gid < static_cast<int>(s.demand.size()); ++gid) {
      if (s.retired[static_cast<std::size_t>(gid)] || group_feasible(gid)) {
        continue;
      }
      any_infeasible = true;
      // Shed: vertices of gid with the best outward attachment first.
      struct Candidate {
        VertexIndex v;
        int target;
        double gain;
      };
      std::vector<Candidate> cands;
      for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
        if (s.group_of[static_cast<std::size_t>(v)] != gid) continue;
        AccumulateNeighborGroups(g, s, v, acc);
        const double own = acc.Get(gid);
        for (const int ng : acc.touched()) {
          if (ng == gid) continue;
          cands.push_back({v, ng, acc.Get(ng) - own});
        }
      }
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.gain > b.gain;
                });
      for (const auto& c : cands) {
        if (group_feasible(gid)) break;
        if (s.group_of[static_cast<std::size_t>(c.v)] != gid) continue;
        const Resource after =
            s.demand[static_cast<std::size_t>(c.target)] + g.demand(c.v);
        if (!fits(after)) continue;
        s.Assign(g, c.v, c.target);
      }
      if (group_feasible(gid)) continue;

      // Shedding was not enough: carve the group in two with a min-cut
      // bisection; the smaller side becomes a new group.
      std::vector<VertexIndex> members;
      for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
        if (s.group_of[static_cast<std::size_t>(v)] == gid) {
          members.push_back(v);
        }
      }
      const CsrGraph sub = InducedSubgraph(g, members);
      PartitionOptions popts = opts.partition;
      popts.seed = rng.NextU64();
      const Bisection bis = Bisect(sub, popts);
      const int fresh = s.NewGroup();
      const bool zero_smaller = bis.side_weight[0] <= bis.side_weight[1];
      for (std::size_t i = 0; i < members.size(); ++i) {
        if ((bis.side[i] == 0) == zero_smaller) {
          s.Assign(g, members[i], fresh);
        }
      }
    }
    if (!any_infeasible) break;
  }

  // --- bounded cut refinement ---------------------------------------------------
  const int budget =
      static_cast<int>(opts.migration_budget_fraction * static_cast<double>(n));
  int refinement_moves = 0;
  std::vector<VertexIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0;
       pass < opts.refine_passes && refinement_moves < budget; ++pass) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    bool improved = false;
    for (const auto v : order) {
      if (refinement_moves >= budget) break;
      const int own = s.group_of[static_cast<std::size_t>(v)];
      if (s.count[static_cast<std::size_t>(own)] <= 1) continue;
      AccumulateNeighborGroups(g, s, v, acc);
      const double own_w = acc.Get(own);
      int best = -1;
      double best_gain = 1e-9;
      for (const int ng : acc.touched()) {
        if (ng == own) continue;
        const double gain = acc.Get(ng) - own_w;
        if (gain <= best_gain) continue;
        const Resource after =
            s.demand[static_cast<std::size_t>(ng)] + g.demand(v);
        if (fits(after)) {
          best = ng;
          best_gain = gain;
        }
      }
      if (best >= 0) {
        s.Assign(g, v, best);
        ++refinement_moves;
        improved = true;
      }
    }
    if (!improved) break;
  }

  // --- compact group ids and report ----------------------------------------------
  IncrementalResult result;
  result.group_of.assign(n, -1);
  std::unordered_map<int, int> compact;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const int gid = s.group_of[static_cast<std::size_t>(v)];
    auto it = compact.find(gid);
    if (it == compact.end()) {
      it = compact.emplace(gid, result.num_groups++).first;
    }
    result.group_of[static_cast<std::size_t>(v)] = it->second;
  }
  for (int gid = 0; gid < static_cast<int>(s.demand.size()); ++gid) {
    if (s.retired[static_cast<std::size_t>(gid)] ||
        s.count[static_cast<std::size_t>(gid)] == 0) {
      continue;
    }
    if (!group_feasible(gid)) ++result.infeasible_groups;
  }
  // Moves: compare against `previous` through the old→working remap.
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const int old = previous[static_cast<std::size_t>(v)];
    if (old < 0) continue;
    const auto it = old_to_new.find(old);
    if (it == old_to_new.end() ||
        s.group_of[static_cast<std::size_t>(v)] != it->second) {
      ++result.moved_vertices;
    }
  }
  result.cut_weight = g.CutWeightKWay(result.group_of);
  return result;
}

}  // namespace gl
