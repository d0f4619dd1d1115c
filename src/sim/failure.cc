#include "sim/failure.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/stable_map.h"

namespace gl {

FailureImpact InjectFailure(const Placement& placement,
                            const Workload& workload, const Topology& topo,
                            FailureDomain domain, ServerId victim) {
  GOLDILOCKS_CHECK(victim.valid() && victim.value() < topo.num_servers());
  FailureImpact impact;

  // The set of dead servers.
  std::unordered_set<int> dead;
  if (domain == FailureDomain::kServer) {
    dead.insert(victim.value());
  } else {
    const NodeId rack = topo.AncestorAt(topo.server_node(victim), 1);
    for (const auto s : topo.ServersUnder(rack)) dead.insert(s.value());
  }
  impact.failed_servers = static_cast<int>(dead.size());

  // Displaced containers and replica-set survival accounting.
  std::unordered_map<GroupId, std::pair<int, int>> sets;  // lost, alive
  for (const auto& c : workload.containers) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (i >= placement.server_of.size()) break;
    const ServerId s = placement.server_of[i];
    if (!s.valid()) continue;
    const bool lost = dead.count(s.value()) > 0;
    if (lost) impact.displaced.push_back(c.id);
    if (c.replica_set.valid()) {
      auto& [lost_n, alive_n] = sets[c.replica_set];
      (lost ? lost_n : alive_n) += 1;
    }
  }
  // Sorted snapshot: the replica-set partition into degraded/unavailable
  // must come out in set-id order, not hash-bucket order.
  for (const auto& [set_id, counts] : SortedItems(sets)) {
    const auto& [lost_n, alive_n] = counts;
    if (lost_n == 0) continue;  // untouched
    (alive_n > 0 ? impact.degraded_sets : impact.unavailable_sets)
        .push_back(set_id);
  }
  return impact;
}

RecoveryResult PlanRecovery(const Placement& placement,
                            const FailureImpact& impact,
                            const Workload& workload,
                            std::span<const Resource> demands,
                            const Topology& topo,
                            const MigrationCostOptions& cost) {
  RecoveryResult result;
  result.placement = placement;

  // Healthy-server loads after the failure (displaced containers removed).
  std::unordered_set<int> displaced(impact.displaced.size());
  for (const auto c : impact.displaced) displaced.insert(c.value());
  std::unordered_set<int> dead_servers;
  for (const auto c : impact.displaced) {
    dead_servers.insert(
        placement.server_of[static_cast<std::size_t>(c.value())].value());
  }
  std::vector<Resource> load(static_cast<std::size_t>(topo.num_servers()));
  for (const auto& c : workload.containers) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (i >= placement.server_of.size()) break;
    const ServerId s = placement.server_of[i];
    if (s.valid() && !displaced.count(c.id.value())) {
      load[static_cast<std::size_t>(s.value())] += demands[i];
    }
  }

  // Best-fit the displaced containers onto healthy machines, biggest first
  // so large items are not stranded.
  std::vector<ContainerId> order = impact.displaced;
  const Resource ref = topo.average_server_capacity();
  std::sort(order.begin(), order.end(), [&](ContainerId a, ContainerId b) {
    return demands[static_cast<std::size_t>(a.value())].NormalizedL1(ref) >
           demands[static_cast<std::size_t>(b.value())].NormalizedL1(ref);
  });

  // Per-destination serialized restore (images stream over each NIC).
  std::vector<double> busy_ms GL_UNITS(ms)(static_cast<std::size_t>(topo.num_servers()),
                              0.0);
  for (const auto c : order) {
    const auto ci = static_cast<std::size_t>(c.value());
    const Resource& d = demands[ci];
    ServerId best = ServerId::invalid();
    double best_slack GL_UNITS(dimensionless) = 0.0;
    for (int s = 0; s < topo.num_servers(); ++s) {
      if (dead_servers.count(s)) continue;
      const ServerId sid{s};
      const Resource& cap = topo.server_capacity(sid);
      if (!(load[static_cast<std::size_t>(s)] + d).FitsIn(cap)) continue;
      const double slack GL_UNITS(dimensionless) =
          1.0 - (load[static_cast<std::size_t>(s)] + d).DominantShare(cap);
      // Best fit: tightest remaining slack.
      if (!best.valid() || slack < best_slack) {
        best = sid;
        best_slack = slack;
      }
    }
    if (!best.valid()) {
      ++result.unrecoverable;
      result.placement.server_of[ci] = ServerId::invalid();
      continue;
    }
    load[static_cast<std::size_t>(best.value())] += d;
    result.placement.server_of[ci] = best;
    ++result.recovered;
    busy_ms[static_cast<std::size_t>(best.value())] +=
        cost.restore_ms + ImageTransferMs(d.mem_gb, cost);
    result.recovery_makespan_ms =
        std::max(result.recovery_makespan_ms,
                 busy_ms[static_cast<std::size_t>(best.value())]);
  }
  return result;
}

}  // namespace gl
