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
  // Server of each live container (active and placed), invalid otherwise,
  // and the service time of each live container as a responder. Runs of
  // one app share a profile lookup.
  const std::size_t n = workload.containers.size();
  std::vector<ServerId> live(n, ServerId::invalid());
  std::vector<double> service_ms GL_UNITS(ms)(n, 0.0);
  const AppProfile* profile = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i] || !placement.server_of[i].valid()) continue;
    live[i] = placement.server_of[i];
    const AppType app = workload.containers[i].app;
    if (profile == nullptr || profile->type != app) {
      profile = &GetAppProfile(app);
    }
    service_ms[i] = profile->base_service_ms;
  }
  // Server busyness: CPU share and NIC share (cross-server traffic only —
  // colocated chatter costs no NIC), whichever dominates.
  const int num_servers = topo_.num_servers();
  std::vector<double> cpu_load GL_UNITS(cores)(static_cast<std::size_t>(num_servers), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const ServerId s = live[i];
    if (!s.valid()) continue;
    GOLDILOCKS_CHECK_LT(s.value(), num_servers);
    cpu_load[static_cast<std::size_t>(s.value())] += demands[i].cpu;
  }
  // These tables depend only on the server or the node, so each entry is
  // computed once per call instead of once per query edge endpoint.
  std::vector<double> server_utilization GL_UNITS(dimensionless)(
      static_cast<std::size_t>(num_servers), 0.0);
  std::vector<double> queue_factor GL_UNITS(dimensionless)(
      static_cast<std::size_t>(num_servers), 0.0);
  for (int i = 0; i < num_servers; ++i) {
    const ServerId s{i};
    const auto& cap = topo_.server_capacity(s);
    const double cpu_u =
        cap.cpu > 0.0 ? cpu_load[static_cast<std::size_t>(i)] / cap.cpu : 0.0;
    const double nic_u = traffic.UplinkUtilization(topo_, topo_.server_node(s));
    const double u GL_UNITS(dimensionless) = std::max(cpu_u, nic_u);
    server_utilization[static_cast<std::size_t>(i)] = u;
    queue_factor[static_cast<std::size_t>(i)] = QueueFactor(u);
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
  samples.reserve(workload.edges.size());
  double weighted_sum = 0.0;
  double queue_sum = 0.0;
  double network_sum = 0.0;
  double weight_total GL_UNITS(count) = 0.0;
  int violations = 0;

  for (const auto& e : workload.edges) {
    if (!e.is_query || e.flows <= 0.0) continue;
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    const ServerId sa = live[ia];
    const ServerId sb = live[ib];
    if (!sa.valid() || !sb.valid()) continue;

    // The busier endpoint's factor: picking b's when ua < ub and a's
    // otherwise is exactly QueueFactor(std::max(ua, ub)), since std::max
    // returns ua unless ua < ub. Picking an index keeps the branch out.
    const auto si_a = static_cast<std::size_t>(sa.value());
    const auto si_b = static_cast<std::size_t>(sb.value());
    const std::size_t busier =
        server_utilization[si_a] < server_utilization[si_b] ? si_b : si_a;
    const double queue GL_UNITS(ms) = service_ms[ib] * queue_factor[busier];

    double tct GL_UNITS(ms) = queue;

    // Network round trip: hop latency inflated by per-link congestion.
    double network GL_UNITS(ms) = 0.0;
    if (sa != sb) {
      double one_way GL_UNITS(ms) = 0.0;
      topo_.ForEachUplinkBetween(sa, sb, [&](NodeId node, int) {
        one_way += hop_ms[static_cast<std::size_t>(node.value())];
      });
      network = 2.0 * one_way;
      tct += network;
    }

    samples.push_back(tct);
    weighted_sum += tct * e.flows;
    queue_sum += queue * e.flows;
    network_sum += network * e.flows;
    weight_total += e.flows;
    violations += tct > opts_.sla_ms ? 1 : 0;
  }

  result.query_edges = static_cast<int>(samples.size());
  if (!samples.empty()) {
    result.mean_ms = weighted_sum / weight_total;
    result.queue_ms = queue_sum / weight_total;
    result.network_ms = network_sum / weight_total;
    result.p99_ms = Percentile(samples, 99.0);
    result.sla_violation_rate =
        static_cast<double>(violations) / static_cast<double>(samples.size());
  }
  return result;
}

}  // namespace gl
