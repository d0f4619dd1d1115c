#include "core/goldilocks.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/stable_map.h"
#include "common/state_hash.h"
#include "core/uplink_reservations.h"
#include "graph/incremental.h"
#include "graph/scratch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {
namespace {

obs::Counter& PeeCapRejections() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "goldilocks.pee_cap_rejections", obs::MetricKind::kDeterministic);
  return c;
}

// Memory is packed to full capacity: RAM draws little dynamic power and does
// not burst, so it is not tied to the PEE point.
constexpr double kMemoryCeiling GL_UNITS(dimensionless) = 1.0;
// Groups are formed against ceiling × (1 - kGroupHeadroom) so a cached
// grouping survives epoch-to-epoch demand growth (the reuse check and the
// final placement still enforce the full ceiling).
constexpr double kGroupHeadroom GL_UNITS(dimensionless) = 0.10;
// A group stays on its current server while the server remains below this
// fraction of *full* capacity (CPU/network): moderate drift is absorbed by
// the PEE headroom instead of triggering migration; beyond it the group is
// re-placed. Memory is always allowed to 100%.
constexpr double kStabilityCeiling GL_UNITS(dimensionless) = 0.85;

// Per-dimension packing ceiling: CPU and network stop at the PEE point,
// memory at its own ceiling.
Resource CeilingFor(const Resource& capacity, const GoldilocksOptions& opts) {
  return Resource{.cpu = capacity.cpu * opts.pee_utilization,
                  .mem_gb = capacity.mem_gb * kMemoryCeiling,
                  .net_mbps = capacity.net_mbps * opts.pee_utilization};
}

// During partitioning the network dimension is checked loosely: min-cut
// grouping makes most of a group's traffic internal (it never touches the
// NIC once colocated), so the exact NIC check is left to placement, which
// tests each group's *effective* demand against a server and spills a group
// that fits none container by container. The relaxation only prevents
// absurdly network-heavy groups from forming in the first place.
constexpr double kPartitionNetRelax = 8.0;

std::uint64_t HashActiveMask(std::span<const std::uint8_t> active) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const auto a : active) {
    h ^= a;
    h *= 1099511628211ULL;
  }
  return h;
}

// Flow adjacency over container ids, used to compute how much of a
// container's traffic leaves its group. CSR: container c's peers are
// peer[offsets[c] .. offsets[c+1]), filled in workload.edges order, so each
// peer list and each total_flows sum keep the edge order.
struct FlowAdjacency {
  std::vector<std::size_t> offsets;
  std::vector<int> peer;
  std::vector<double> flows GL_UNITS(count);
  std::vector<double> total_flows GL_UNITS(count);
};

FlowAdjacency BuildFlowAdjacency(const Workload& workload) {
  const std::size_t n = workload.containers.size();
  FlowAdjacency adj;
  adj.offsets.assign(n + 1, 0);
  adj.total_flows.assign(n, 0.0);
  for (const auto& e : workload.edges) {
    if (e.flows <= 0.0) continue;
    ++adj.offsets[static_cast<std::size_t>(e.a.value()) + 1];
    ++adj.offsets[static_cast<std::size_t>(e.b.value()) + 1];
  }
  for (std::size_t c = 0; c < n; ++c) adj.offsets[c + 1] += adj.offsets[c];
  adj.peer.resize(adj.offsets[n]);
  adj.flows.resize(adj.offsets[n]);
  std::vector<std::size_t> fill(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const auto& e : workload.edges) {
    if (e.flows <= 0.0) continue;
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    adj.peer[fill[ia]] = e.b.value();
    adj.flows[fill[ia]++] = e.flows;
    adj.peer[fill[ib]] = e.a.value();
    adj.flows[fill[ib]++] = e.flows;
    adj.total_flows[ia] += e.flows;
    adj.total_flows[ib] += e.flows;
  }
  return adj;
}

// Membership stamps: `stamp[c] == generation` means c is in the current set.
class MembershipStamp {
 public:
  explicit MembershipStamp(std::size_t n) : stamp_(n, 0) {}
  void Begin(std::span<const ContainerId> members) {
    ++generation_;
    for (const auto c : members) {
      stamp_[static_cast<std::size_t>(c.value())] = generation_;
    }
  }
  [[nodiscard]] bool Contains(int container_value) const {
    return stamp_[static_cast<std::size_t>(container_value)] == generation_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
};

}  // namespace

struct GoldilocksScheduler::PartitionCache {
  const Workload* workload = nullptr;
  std::uint64_t active_hash = 0;
  int epochs_since_partition = 0;
  std::vector<std::vector<ContainerId>> groups;  // in locality order
  std::vector<std::string> paths;                // recursion path per group
  // Server each group landed on last epoch (stability across reuse). Store
  // sizes it to `groups`, and Place restores it at that size.
  std::vector<ServerId> group_server;

  // Derived data, kept out of StateDigest: each is a pure function of
  // inputs that the digest or the caller already pins, and each is built
  // once for the input it depends on, not once per epoch.
  //
  // Group id per container of `workload` (-1 outside every group), set with
  // the grouping: last_grouping() and the repair path's previous labels.
  std::vector<int> group_of;
  // Flow adjacency of `adjacency_of`, built on first use for a
  // workload. A workload's edges never change under one pointer (the
  // grouping cache trusts the same key); the sizes catch a reused address.
  const Workload* adjacency_of = nullptr;
  std::size_t adjacency_containers = 0;
  std::size_t adjacency_edges = 0;
  FlowAdjacency adjacency;
  // Per grouping and adjacency, rebuilt by EnsureDerived on first use
  // after either changes (`derived` is false until then): each grouped
  // container's NIC share, the fraction of its flow weight that leaves its
  // group (1.0 with no modelled flows: its traffic goes somewhere we cannot
  // see), and each group's sorted, distinct replica sets (the fault-domain
  // check's input).
  std::vector<double> nic_share GL_UNITS(dimensionless);
  std::vector<std::vector<GroupId>> replica_sets;
  bool derived = false;
  // Effective demand of groups[0 .. group_demand.size()) under this
  // epoch's demands. PartitionContainers resets it; the drift check fills
  // what it prices and AssignGroupsSymmetric the rest.
  std::vector<Resource> group_demand;

  // Once per communication graph: the container graph of the last
  // repartition, and the root bisection's coarsening of its arcs. A
  // graph's arcs follow from the workload's edges and replica labels,
  // which never change under one pointer (the adjacency's key), and from
  // the active set. So while `graph_of`, its sizes and the active mask,
  // compared byte for byte, equal this epoch's, a repartition refreshes
  // the graph's demand and balance columns instead of rebuilding it, the
  // graph keeps its structure stamp, and `memo` spares the root its
  // coarsening.
  const Workload* graph_of = nullptr;
  std::size_t graph_containers = 0;
  std::size_t graph_edges = 0;
  std::vector<std::uint8_t> graph_active;
  ContainerGraph graph;
  PartitionMemo memo;

  // The container graph for this epoch's input: built, or refreshed when
  // the last one has the same arcs.
  const ContainerGraph& Graph(const SchedulerInput& input,
                              const Resource& avg_cap) {
    const Workload& w = *input.workload;
    if (graph_of == &w && graph_containers == w.containers.size() &&
        graph_edges == w.edges.size() &&
        std::equal(graph_active.begin(), graph_active.end(),
                   input.active.begin(), input.active.end())) {
      RefreshContainerGraph(graph, input.demands, avg_cap);
    } else {
      graph = {};  // the old graph goes before the new one is built
      graph = BuildContainerGraph(w, input.demands, input.active, avg_cap);
      graph_of = &w;
      graph_containers = w.containers.size();
      graph_edges = w.edges.size();
      graph_active.assign(input.active.begin(), input.active.end());
    }
    return graph;
  }

  // Brings nic_share and replica_sets up to date for `w`, first
  // rebuilding the flow adjacency unless it was built for `w`. They are
  // rebuilt (the only MembershipStamp pass) on the first call after a new
  // grouping or a new adjacency.
  void EnsureDerived(const Workload& w) {
    if (adjacency_of != &w || adjacency_containers != w.containers.size() ||
        adjacency_edges != w.edges.size()) {
      adjacency = BuildFlowAdjacency(w);
      adjacency_of = &w;
      adjacency_containers = w.containers.size();
      adjacency_edges = w.edges.size();
      derived = false;
    }
    if (derived) return;
    nic_share.assign(w.containers.size(), 1.0);
    MembershipStamp stamp(w.containers.size());
    replica_sets.assign(groups.size(), {});
    for (std::size_t g = 0; g < groups.size(); ++g) {
      stamp.Begin(groups[g]);
      auto& sets = replica_sets[g];
      for (const auto c : groups[g]) {
        const auto ci = static_cast<std::size_t>(c.value());
        const GroupId rs = w.containers[ci].replica_set;
        if (rs.valid()) sets.push_back(rs);
        const double total GL_UNITS(count) = adjacency.total_flows[ci];
        if (total <= 0.0) continue;
        double external GL_UNITS(count) = 0.0;
        for (std::size_t k = adjacency.offsets[ci];
             k < adjacency.offsets[ci + 1]; ++k) {
          if (!stamp.Contains(adjacency.peer[k])) external += adjacency.flows[k];
        }
        nic_share[ci] = external / total;
      }
      std::sort(sets.begin(), sets.end());
      sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
    }
    derived = true;
  }

  void Store(const Workload& w, std::uint64_t hash,
             std::vector<std::vector<ContainerId>> new_groups,
             std::vector<std::string> new_paths) {
    workload = &w;
    active_hash = hash;
    epochs_since_partition = 0;
    groups = std::move(new_groups);
    paths = std::move(new_paths);
    group_demand.clear();
    group_server.assign(groups.size(), ServerId::invalid());
    group_of.assign(w.containers.size(), -1);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const auto c : groups[g]) {
        group_of[static_cast<std::size_t>(c.value())] = static_cast<int>(g);
      }
    }
    derived = false;
  }

  // Effective demand of group `gi` with its members colocated: CPU and
  // memory add up; each member's network demand is scaled by its NIC share
  // (colocated chatter never reaches the NIC).
  [[nodiscard]] Resource GroupDemand(std::size_t gi,
                                     std::span<const Resource> demands) const {
    Resource out;
    for (const auto c : groups[gi]) {
      const auto ci = static_cast<std::size_t>(c.value());
      const Resource& d = demands[ci];
      out.cpu += d.cpu;
      out.mem_gb += d.mem_gb;
      out.net_mbps += d.net_mbps * nic_share[ci];
    }
    return out;
  }
};

GoldilocksScheduler::GoldilocksScheduler(GoldilocksOptions opts)
    : opts_(std::move(opts)), cache_(std::make_unique<PartitionCache>()) {}

GoldilocksScheduler::~GoldilocksScheduler() = default;

const std::vector<int>& GoldilocksScheduler::last_grouping() const {
  return cache_->group_of;
}

int GoldilocksScheduler::last_num_groups() const {
  return static_cast<int>(cache_->groups.size());
}

std::uint64_t GoldilocksScheduler::partition_memo_hits() const {
  return cache_->memo.hits;
}

std::uint64_t GoldilocksScheduler::StateDigest() const {
  StateHasher h;
  h.MixU64(cache_->active_hash);
  h.MixI32(cache_->epochs_since_partition);
  h.MixU64(cache_->groups.size());
  for (const auto& group : cache_->groups) {
    h.MixU64(group.size());
    for (const auto c : group) h.MixId(c);
  }
  for (const auto& path : cache_->paths) {
    h.MixU64(path.size());
    for (const char ch : path) h.MixU64(static_cast<unsigned char>(ch));
  }
  for (const auto s : cache_->group_server) h.MixId(s);
  return h.digest();
}

const std::vector<std::vector<ContainerId>>&
GoldilocksScheduler::PartitionContainers(const SchedulerInput& input) {
  const auto& topo = *input.topology;
  const Resource avg_cap = topo.average_server_capacity();
  const Resource ceiling = CeilingFor(avg_cap, opts_);
  cache_->group_demand.clear();

  // Reuse the cached grouping when the container universe is unchanged, the
  // repartition interval has not elapsed, and no group outgrew a server.
  const std::uint64_t active_hash = HashActiveMask(input.active);
  const bool universe_unchanged = cache_->workload == input.workload &&
                                  cache_->active_hash == active_hash &&
                                  !cache_->groups.empty();
  if (universe_unchanged &&
      cache_->epochs_since_partition + 1 < opts_.repartition_interval) {
    // Correlated bursts swing group demands ±25% between epochs; migrating
    // everything every epoch to chase them defeats the purpose of epoch
    // caching (Sec. IV-C, migration cost). Keep the grouping unless some
    // group has drifted grossly past a server — placement spills moderate
    // overflow container-by-container.
    const Resource drift_limit = ceiling * 1.5;
    bool acceptable = true;
    cache_->EnsureDerived(*input.workload);
    for (std::size_t gi = 0; gi < cache_->groups.size(); ++gi) {
      cache_->group_demand.push_back(cache_->GroupDemand(gi, input.demands));
      if (!cache_->group_demand.back().FitsIn(drift_limit)) {
        acceptable = false;
        break;
      }
    }
    if (acceptable) {
      static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
          "goldilocks.partition_cache_hits", obs::MetricKind::kDeterministic);
      hits.Increment();
      ++cache_->epochs_since_partition;
      return cache_->groups;
    }
  }
  obs::TraceSpan span("goldilocks.partition",
                      static_cast<std::int64_t>(
                          input.workload->containers.size()));

  // --- full re-partition -----------------------------------------------------
  const ContainerGraph& cg = cache_->Graph(input, avg_cap);
  // Groups are sized against a margin-reduced ceiling so they survive
  // epoch-to-epoch demand growth without a full repartition.
  Resource relaxed = ceiling * (1.0 - kGroupHeadroom);
  relaxed.net_mbps *= kPartitionNetRelax;
  const auto fits = [&relaxed](const Resource& demand) {
    const bool ok = demand.FitsIn(relaxed);
    // Every "group too big for the PEE-capped ceiling" verdict forces
    // another bisection level — the count explains recursion depth.
    if (!ok) PeeCapRejections().Increment();
    return ok;
  };
  // Server-capacity units of a group: how many ceiling-fulls its demand is
  // worth (network relaxed as above). Guides proportional splits so the
  // final groups fill servers tightly.
  const auto units = [&relaxed](const Resource& demand) {
    double u = 0.0;
    if (relaxed.cpu > 0) u = std::max(u, demand.cpu / relaxed.cpu);
    if (relaxed.mem_gb > 0) u = std::max(u, demand.mem_gb / relaxed.mem_gb);
    if (relaxed.net_mbps > 0) {
      u = std::max(u, demand.net_mbps / relaxed.net_mbps);
    }
    return u;
  };
  std::vector<std::vector<ContainerId>> groups;
  std::vector<std::string> paths;
  // Per-container server of the grouping being repaired; empty unless an
  // incremental repair runs below. Lets the final groups inherit last
  // epoch's servers so the placement stability ceiling can actually hold
  // them in place — without it every repartition repacks from a blank
  // slate and even a repair that moved a handful of vertices migrates
  // most containers.
  std::vector<ServerId> prev_server_of;

  const bool can_repair = opts_.incremental_repartition &&
                          cache_->workload == input.workload &&
                          !cache_->groups.empty();
  if (can_repair) {
    // Repair the previous grouping instead of relabelling from scratch.
    // Vertices map to their old group index (or -1 if newly active).
    const std::vector<int>& container_to_old = cache_->group_of;
    prev_server_of.assign(input.workload->containers.size(),
                          ServerId::invalid());
    for (std::size_t gi = 0; gi < cache_->groups.size(); ++gi) {
      for (const auto c : cache_->groups[gi]) {
        prev_server_of[static_cast<std::size_t>(c.value())] =
            cache_->group_server[gi];
      }
    }
    std::vector<int> previous(
        static_cast<std::size_t>(cg.graph.num_vertices()), -1);
    for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
      previous[static_cast<std::size_t>(v)] = container_to_old[
          static_cast<std::size_t>(
              cg.vertex_to_container[static_cast<std::size_t>(v)].value())];
    }
    IncrementalOptions iopts;
    iopts.partition = opts_.partition;
    const auto repaired =
        IncrementalRepartition(cg.graph, previous, fits, iopts);

    // Rebuild member lists; each new group inherits the recursion path of
    // the old group contributing most of its members (fresh groups sort
    // last via a '~' sentinel, which is > '0'/'1').
    groups.assign(static_cast<std::size_t>(repaired.num_groups), {});
    std::vector<std::unordered_map<int, int>> votes(
        static_cast<std::size_t>(repaired.num_groups));
    for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
      const int gid = repaired.group_of[static_cast<std::size_t>(v)];
      groups[static_cast<std::size_t>(gid)].push_back(
          cg.vertex_to_container[static_cast<std::size_t>(v)]);
      const int old = previous[static_cast<std::size_t>(v)];
      if (old >= 0) ++votes[static_cast<std::size_t>(gid)][old];
    }
    paths.assign(static_cast<std::size_t>(repaired.num_groups), {});
    for (int gid = 0; gid < repaired.num_groups; ++gid) {
      // Sorted snapshot: vote ties must resolve to the lowest old group id,
      // not whichever hash bucket comes first.
      int best_old = -1, best_votes = 0;
      const auto group_votes =
          SortedItems(votes[static_cast<std::size_t>(gid)]);
      for (const auto& [old, n] : group_votes) {
        if (n > best_votes) {
          best_votes = n;
          best_old = old;
        }
      }
      // append, not operator+: GCC 12 at -O3 reports a false -Wrestrict on
      // `std::string + std::string` here, which -Werror turns fatal.
      paths[static_cast<std::size_t>(gid)] =
          best_old >= 0 ? cache_->paths[static_cast<std::size_t>(best_old)]
                        : std::string("~").append(std::to_string(gid));
    }
    // Locality order: stable sort by inherited path.
    std::vector<std::size_t> idx(groups.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a,
                                                 std::size_t b) {
      return paths[a] < paths[b];
    });
    std::vector<std::vector<ContainerId>> g2;
    std::vector<std::string> p2;
    g2.reserve(groups.size());
    p2.reserve(paths.size());
    for (const auto i : idx) {
      g2.push_back(std::move(groups[i]));
      p2.push_back(std::move(paths[i]));
    }
    groups = std::move(g2);
    paths = std::move(p2);
  } else {
    RecursivePartitionResult part = RecursivePartition(
        cg.graph, fits, opts_.partition, units, &cache_->memo);

    // Groups as container-id lists. Group ids are already in locality order
    // (RecursivePartitionResult).
    groups.assign(static_cast<std::size_t>(part.num_groups), {});
    for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
      const int g = part.group_of[static_cast<std::size_t>(v)];
      groups[static_cast<std::size_t>(g)].push_back(
          cg.vertex_to_container[static_cast<std::size_t>(v)]);
    }
    paths = std::move(part.group_path);
  }

  cache_->Store(*input.workload, active_hash, std::move(groups),
                std::move(paths));
  if (!prev_server_of.empty()) {
    // Majority vote over members' previous servers (ties to the lowest
    // server id). Placement treats the result as a preference, not a
    // booking: if two groups inherit one server, whichever places first
    // keeps it and the other falls through to first-fit.
    for (std::size_t gi = 0; gi < cache_->groups.size(); ++gi) {
      std::unordered_map<int, int> votes;
      for (const auto c : cache_->groups[gi]) {
        const ServerId s = prev_server_of[static_cast<std::size_t>(c.value())];
        if (s.valid()) ++votes[s.value()];
      }
      int best_server = -1;
      int best_votes = 0;
      for (const auto& [server, n] : SortedItems(votes)) {
        if (n > best_votes) {
          best_votes = n;
          best_server = server;
        }
      }
      if (best_server >= 0) cache_->group_server[gi] = ServerId(best_server);
    }
  }
  return cache_->groups;
}

template <bool kCheckUplinks>
Placement GoldilocksScheduler::AssignGroupsSymmetric(
    const SchedulerInput& input, UplinkReservations* uplinks,
    std::span<const std::size_t> first,
    std::vector<std::size_t>* stranded) const {
  const auto& topo = *input.topology;
  const std::vector<std::vector<ContainerId>>& groups = cache_->groups;
  cache_->EnsureDerived(*input.workload);
  PackingState state(topo);
  Placement p;
  p.server_of.assign(input.workload->containers.size(), ServerId::invalid());

  // Price every group the drift check did not reach (all of them after a
  // repartition); the fit tests and the booking below read these values.
  std::vector<Resource>& group_demand = cache_->group_demand;
  for (std::size_t gi = group_demand.size(); gi < groups.size(); ++gi) {
    group_demand.push_back(cache_->GroupDemand(gi, input.demands));
  }

  std::vector<ServerId> server_order = topo.ServersUnder(topo.root());

  std::vector<std::size_t> group_order(groups.size());
  std::iota(group_order.begin(), group_order.end(), 0);
  if (!opts_.locality_order) {
    // Ablation: identical groups, identical packing ceiling, but the
    // recursion-tree adjacency is destroyed by a deterministic shuffle.
    Rng rng(opts_.partition.seed ^ 0xab1a7e);
    for (std::size_t i = group_order.size(); i > 1; --i) {
      std::swap(group_order[i - 1], group_order[rng.NextBelow(i)]);
    }
  }
  // `first` (ascending) walks ahead of the rest, which keep their order.
  if (!first.empty()) {
    std::stable_partition(group_order.begin(), group_order.end(),
                          [first](std::size_t gi) {
                            return std::binary_search(first.begin(),
                                                      first.end(), gi);
                          });
  }

  // Fault domains (Sec. IV-C): groups carrying the same replica set must
  // land in different racks when possible, different servers at minimum.
  const std::vector<std::vector<GroupId>>& group_sets = cache_->replica_sets;
  std::unordered_map<int, std::vector<GroupId>> rack_sets;    // rack node →
  std::unordered_map<int, std::vector<GroupId>> server_sets;  // server id →
  auto domain_conflict = [](const std::vector<GroupId>& a,
                            const std::vector<GroupId>& b) {
    for (const auto s : a) {
      if (std::binary_search(b.begin(), b.end(), s)) return true;
    }
    return false;
  };
  // pass 0: rack-level anti-affinity; pass 1: server-level; pass 2: none.
  auto allowed = [&](std::size_t gi, ServerId s, int pass) {
    if (group_sets[gi].empty() || pass >= 2) return true;
    const auto sit = server_sets.find(s.value());
    if (sit != server_sets.end() &&
        domain_conflict(group_sets[gi], sit->second)) {
      return false;
    }
    if (pass == 0) {
      const NodeId rack = topo.AncestorAt(topo.server_node(s), 1);
      const auto rit = rack_sets.find(rack.value());
      if (rit != rack_sets.end() &&
          domain_conflict(group_sets[gi], rit->second)) {
        return false;
      }
    }
    return true;
  };

  // Eq. (4)/(5) (Sec. IV): may `bw` more of group gi be booked beneath
  // server s? Constant true, and compiled away, where no uplink is checked.
  const auto uplinks_fit = [uplinks](std::size_t gi, ServerId s,
                                     double bw GL_UNITS(bits_per_sec)) {
    return !kCheckUplinks || uplinks->Admits(gi, s, bw);
  };

  auto place_on = [&](const std::vector<ContainerId>& group, ServerId s,
                      std::size_t gi) {
    // Book the *effective* demand: colocated traffic never hits the NIC.
    // CPU and memory are booked per container (exact). Uplinks book the
    // raw ΣB_i, as Eq. (4)/(5) do.
    state.Add(s, group_demand[gi]);
    if constexpr (kCheckUplinks) {
      uplinks->Commit(gi, s, uplinks->group_bandwidth(gi));
    }
    for (const auto c : group) {
      p.server_of[static_cast<std::size_t>(c.value())] = s;
    }
    cache_->group_server[gi] = s;
    if (!group_sets[gi].empty()) {
      auto& ss = server_sets[s.value()];
      ss.insert(ss.end(), group_sets[gi].begin(), group_sets[gi].end());
      std::sort(ss.begin(), ss.end());
      const NodeId rack = topo.AncestorAt(topo.server_node(s), 1);
      auto& rs = rack_sets[rack.value()];
      rs.insert(rs.end(), group_sets[gi].begin(), group_sets[gi].end());
      std::sort(rs.begin(), rs.end());
    }
  };

  std::size_t cursor = 0;  // next server slot in topology order
  for (const auto gi : group_order) {
    const auto& group = groups[gi];
    if (group.empty()) continue;
    const Resource& eff = group_demand[gi];
    const double group_bw GL_UNITS(bits_per_sec) =
        kCheckUplinks ? uplinks->group_bandwidth(gi) : 0.0;

    // Stability: keep the group on last epoch's server while the server
    // stays below the stability ceiling — moderate growth is exactly what
    // the PEE headroom is for; migrating to restore the 70% target would
    // cost more than it saves (Sec. IV-C). Memory does not drift, so only
    // CPU/network are capped.
    if (cache_->group_server[gi].valid()) {
      const ServerId prev = cache_->group_server[gi];
      const Resource& cap = topo.server_capacity(prev);
      const Resource stay_limit{
          .cpu = cap.cpu * kStabilityCeiling,
          .mem_gb = cap.mem_gb,
          .net_mbps = cap.net_mbps * kStabilityCeiling};
      if ((state.load(prev) + eff).FitsIn(stay_limit) &&
          allowed(gi, prev, 0) && uplinks_fit(gi, prev, group_bw)) {
        place_on(group, prev, gi);
        continue;
      }
    }

    // Walk servers from the cursor (left-most first-fit), relaxing the
    // fault-domain constraint pass by pass only if nothing qualifies.
    ServerId chosen = ServerId::invalid();
    for (int pass = 0; pass < 3 && !chosen.valid(); ++pass) {
      for (std::size_t k = 0; k < server_order.size(); ++k) {
        const ServerId s = server_order[(cursor + k) % server_order.size()];
        if (!allowed(gi, s, pass)) continue;
        const Resource ceiling = CeilingFor(topo.server_capacity(s), opts_);
        if ((state.load(s) + eff).FitsIn(ceiling) &&
            uplinks_fit(gi, s, group_bw)) {
          chosen = s;
          cursor = (cursor + k) % server_order.size();
          break;
        }
      }
      if (group_sets[gi].empty()) break;  // passes only differ for replicas
    }
    if (chosen.valid()) {
      place_on(group, chosen, gi);
      continue;
    }
    // The group fits no single server (its NIC demand passed only the
    // relaxed partition check, demands grew since partitioning, or an
    // oversized singleton), or no server whose uplinks can carry it: spill
    // container-by-container, first at the PEE ceiling, then at full
    // capacity as a last resort. Spilled containers are alone, so their
    // full network demand applies. With a checked uplink, a third pass at
    // full capacity ignores Eq. (4)/(5), so placement never fails on
    // bandwidth; the over-reservation is AuditBandwidth's to report.
    for (const auto c : group) {
      const auto& d = input.demands[static_cast<std::size_t>(c.value())];
      ServerId fallback = ServerId::invalid();
      for (std::size_t k = 0;
           k < server_order.size() && !fallback.valid(); ++k) {
        const ServerId s = server_order[(cursor + k) % server_order.size()];
        const Resource ceiling = CeilingFor(topo.server_capacity(s), opts_);
        if ((state.load(s) + d).FitsIn(ceiling) &&
            uplinks_fit(gi, s, d.net_mbps)) {
          fallback = s;
        }
      }
      for (std::size_t k = 0;
           k < server_order.size() && !fallback.valid(); ++k) {
        const ServerId s = server_order[(cursor + k) % server_order.size()];
        if (state.Fits(s, d, 1.0) && uplinks_fit(gi, s, d.net_mbps)) {
          fallback = s;
        }
      }
      if constexpr (kCheckUplinks) {
        for (std::size_t k = 0;
             k < server_order.size() && !fallback.valid(); ++k) {
          const ServerId s = server_order[(cursor + k) % server_order.size()];
          if (state.Fits(s, d, 1.0)) fallback = s;
        }
      }
      if (fallback.valid()) {
        state.Add(fallback, d);
        p.server_of[static_cast<std::size_t>(c.value())] = fallback;
        if constexpr (kCheckUplinks) {
          uplinks->Commit(gi, fallback, d.net_mbps);
        }
      } else if (stranded->empty() || stranded->back() != gi) {
        stranded->push_back(gi);
      }
    }
  }
  return p;
}

Placement GoldilocksScheduler::AssignGroups(
    const SchedulerInput& input, std::span<const std::size_t> first,
    std::vector<std::size_t>* stranded) const {
  if (!input.topology->has_checked_uplinks()) {
    return AssignGroupsSymmetric<false>(input, nullptr, first, stranded);
  }
  UplinkReservations uplinks(*input.topology, cache_->groups, input.demands);
  Placement p = AssignGroupsSymmetric<true>(input, &uplinks, first, stranded);
  p.uplink_reserved_mbps = uplinks.PerNode();
  return p;
}

Placement GoldilocksScheduler::Place(const SchedulerInput& input) {
  GOLDILOCKS_CHECK(input.workload != nullptr && input.topology != nullptr);
  const auto& groups = PartitionContainers(input);
  obs::TraceSpan assign_span("goldilocks.assign_symmetric",
                             static_cast<std::int64_t>(groups.size()));
  const std::vector<ServerId> pins = cache_->group_server;
  std::vector<std::size_t> stranded;
  Placement p = AssignGroups(input, {}, &stranded);
  if (stranded.empty()) return p;
  // The walk only moves forward, so once it has touched every server a
  // container that fits only a near-empty one finds none. Walk again from
  // the same pins with the stranded groups first, while every server is
  // still empty, and keep that walk only if it places more.
  std::sort(stranded.begin(), stranded.end());
  std::vector<ServerId> first_pins = std::move(cache_->group_server);
  cache_->group_server = pins;
  std::vector<std::size_t> still_stranded;
  Placement retry = AssignGroups(input, stranded, &still_stranded);
  if (retry.num_placed() > p.num_placed()) return retry;
  cache_->group_server = std::move(first_pins);
  return p;
}

}  // namespace gl
