#include "sim/latency.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace gl {

LatencyModel::LatencyModel(const Topology& topo, LatencyOptions opts)
    : topo_(topo), opts_(opts) {}

double LatencyModel::QueueFactor(double utilization GL_UNITS(dimensionless))
    const GL_UNITS(dimensionless) {
  const double u GL_UNITS(dimensionless) =
      std::min(utilization * (1.0 + opts_.burst_amplification), 0.999);
  if (u <= 0.0) return 1.0;
  // Multi-core servers behave like M/M/c, not M/M/1: queueing delay is
  // negligible until high utilization, then rises sharply. The u⁴ factor
  // approximates the Erlang-C probability-of-wait for a many-core box —
  // this is what makes the PEE point (70%) a *safe* operating point while
  // 95% packing is not.
  const double u4 GL_UNITS(dimensionless) = u * u * u * u;
  return std::min(1.0 + u4 / (1.0 - u), opts_.max_queue_factor);
}

double LatencyModel::CongestionFactor(
    double link_utilization GL_UNITS(dimensionless)) const
    GL_UNITS(dimensionless) {
  const double rho GL_UNITS(dimensionless) =
      std::min(std::max(link_utilization, 0.0), 0.999);
  return std::min(1.0 / (1.0 - rho), opts_.max_congestion_factor);
}

TctResult LatencyModel::ComputeTct(const Workload& workload,
                                   const Placement& placement,
                                   std::span<const Resource> demands,
                                   std::span<const std::uint8_t> active,
                                   const TrafficEstimate& traffic) const {
  GOLDILOCKS_CHECK_EQ(placement.server_of.size(), workload.containers.size());
  GOLDILOCKS_CHECK_EQ(demands.size(), workload.containers.size());
  GOLDILOCKS_CHECK_EQ(active.size(), workload.containers.size());
  // Server busyness: CPU share and NIC share (cross-server traffic only —
  // colocated chatter costs no NIC), whichever dominates.
  const int num_servers = topo_.num_servers();
  std::vector<double> cpu_load GL_UNITS(cores)(static_cast<std::size_t>(num_servers), 0.0);
  for (std::size_t i = 0; i < workload.containers.size(); ++i) {
    const ServerId s = placement.server_of[i];
    if (!s.valid() || !active[i]) continue;
    GOLDILOCKS_CHECK_LT(s.value(), num_servers);
    cpu_load[static_cast<std::size_t>(s.value())] += demands[i].cpu;
  }
  // Both tables depend only on the server or the node, so each entry is
  // computed once per call instead of once per query edge endpoint.
  std::vector<double> server_utilization GL_UNITS(dimensionless)(
      static_cast<std::size_t>(num_servers), 0.0);
  for (int i = 0; i < num_servers; ++i) {
    const ServerId s{i};
    const auto& cap = topo_.server_capacity(s);
    const double cpu_u =
        cap.cpu > 0.0 ? cpu_load[static_cast<std::size_t>(i)] / cap.cpu : 0.0;
    const double nic_u = traffic.UplinkUtilization(topo_, topo_.server_node(s));
    server_utilization[static_cast<std::size_t>(i)] = std::max(cpu_u, nic_u);
  }
  // One-way latency of each node's uplink: hop cost inflated by congestion.
  std::vector<double> hop_ms GL_UNITS(ms)(
      static_cast<std::size_t>(topo_.num_nodes()), 0.0);
  for (int i = 0; i < topo_.num_nodes(); ++i) {
    hop_ms[static_cast<std::size_t>(i)] =
        opts_.per_hop_ms *
        CongestionFactor(traffic.UplinkUtilization(topo_, NodeId{i}));
  }

  TctResult result;
  std::vector<double> samples GL_UNITS(ms);
  double weighted_sum = 0.0;
  double weight_total GL_UNITS(count) = 0.0;
  int violations = 0;

  for (const auto& e : workload.edges) {
    if (!e.is_query || e.flows <= 0.0) continue;
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    if (!active[ia] || !active[ib]) continue;
    const ServerId sa = placement.server_of[ia];
    const ServerId sb = placement.server_of[ib];
    if (!sa.valid() || !sb.valid()) continue;

    const AppProfile& responder = GetAppProfile(workload.containers[ib].app);
    const double u GL_UNITS(dimensionless) =
        std::max(server_utilization[static_cast<std::size_t>(sa.value())],
                 server_utilization[static_cast<std::size_t>(sb.value())]);
    double tct GL_UNITS(ms) = responder.base_service_ms * QueueFactor(u);

    // Network round trip: hop latency inflated by per-link congestion.
    if (sa != sb) {
      double one_way GL_UNITS(ms) = 0.0;
      topo_.ForEachUplinkOnPath(
          topo_.server_node(sa), topo_.server_node(sb), [&](NodeId n, int) {
            one_way += hop_ms[static_cast<std::size_t>(n.value())];
          });
      tct += 2.0 * one_way;
    }

    samples.push_back(tct);
    weighted_sum += tct * e.flows;
    weight_total += e.flows;
    if (tct > opts_.sla_ms) ++violations;
  }

  result.query_edges = static_cast<int>(samples.size());
  if (!samples.empty()) {
    result.mean_ms = weighted_sum / weight_total;
    result.p99_ms = Percentile(samples, 99.0);
    result.sla_violation_rate =
        static_cast<double>(violations) / static_cast<double>(samples.size());
  }
  return result;
}

}  // namespace gl
