// Asymmetric provisioning (Sec. IV): heterogeneous servers and a degraded
// pod uplink. Goldilocks abstracts each container group as a Virtual
// Cluster and, on every uplink that carries less than the NICs beneath it,
// keeps the outbound reservations of equations (4)/(5) within capacity;
// this example shows the placement adapting around the failure and the
// reservations it booked.
#include <cstdio>

#include "common/table.h"
#include "core/goldilocks.h"
#include "workload/scenarios.h"

int main() {
  using namespace gl;

  // A 4-ary fat tree: 16 servers, 4 pods.
  const Resource big{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};
  Topology topo = Topology::FatTree(4, big, 1000.0);

  // Heterogeneity: every third server is a legacy half-size machine.
  for (int s = 0; s < topo.num_servers(); s += 3) {
    topo.set_server_capacity(ServerId{s}, big * 0.5);
  }
  // Asymmetry: pod 1 lost half of its aggregation uplinks.
  const NodeId degraded_pod = topo.NodesAtLevel(2)[1];
  topo.DegradeUplink(degraded_pod, 0.5);
  std::printf("Topology: %d servers (mixed sizes), pod %d at half uplink\n",
              topo.num_servers(), degraded_pod.value());

  const auto scenario = MakeTwitterCachingScenario();
  const auto demands = scenario->DemandsAt(20);
  const auto active = scenario->ActiveAt(20);

  GoldilocksScheduler scheduler;
  SchedulerInput input;
  input.workload = &scenario->workload();
  input.demands = demands;
  input.active = active;
  input.topology = &topo;
  const Placement p = scheduler.Place(input);

  std::printf("Placed %d/%d containers on %d servers in %d groups\n",
              p.num_placed(), scenario->workload().size(),
              p.NumActiveServers(), scheduler.last_num_groups());

  // Where did the load go, and what does each pod's uplink carry?
  Table t({"pod", "uplink Mbps", "checked", "reserved Mbps", "containers",
           "servers used"});
  for (const auto pod : topo.NodesAtLevel(2)) {
    int containers = 0, servers_used = 0;
    for (const auto s : topo.ServersUnder(pod)) {
      int here = 0;
      for (const auto placed : p.server_of) {
        if (placed == s) ++here;
      }
      containers += here;
      servers_used += here > 0;
    }
    const double reserved =
        p.uplink_reserved_mbps.empty()
            ? 0.0
            : p.uplink_reserved_mbps[static_cast<std::size_t>(pod.value())];
    t.AddRow({Table::Int(pod.value()),
              Table::Num(topo.uplink_capacity(pod), 0),
              topo.uplink_checked(pod) ? "yes" : "no",
              Table::Num(reserved, 0), Table::Int(containers),
              Table::Int(servers_used)});
  }
  t.Print();
  return 0;
}
