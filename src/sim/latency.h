// Task-completion-time model.
//
// A query on edge (a → b) completes in
//
//   TCT = S_b · Q(u) + 2 · Σ_{links on path} h · C(ρ_link)
//
// where S_b is the responder application's unloaded service time, Q the
// queueing inflation of the busier endpoint server, h the per-hop one-way
// latency (switching + VxLAN encap/decap on the testbed software overlay),
// and C the per-link congestion inflation. Both inflations are M/M/1-shaped
// (1/(1-u)) with a cap, and server utilization is amplified by an
// intra-epoch burst factor: the paper's core argument is that policies that
// pack to ~95% leave no headroom, so correlated bursts push them into the
// saturated regime while Goldilocks' PEE ceiling absorbs them.
#pragma once

#include <span>
#include <vector>

#include "schedulers/placement.h"
#include "netsim/traffic.h"
#include "topology/topology.h"
#include "workload/container.h"

namespace gl {

struct LatencyOptions {
  // One-way per-link latency: switching plus software VxLAN overlay cost.
  double per_hop_ms GL_UNITS(ms) = 0.4;
  // Intra-epoch bursts above the epoch-mean utilization (Azure VMs burst
  // together: pairwise correlation 0.6–0.8).
  double burst_amplification GL_UNITS(dimensionless) = 0.15;
  // Caps for the queueing / congestion inflation factors.
  double max_queue_factor GL_UNITS(dimensionless) = 12.0;
  double max_congestion_factor GL_UNITS(dimensionless) = 4.0;
  // A query slower than this violates the SLA.
  double sla_ms GL_UNITS(ms) = 30.0;
};

struct TctResult {
  double mean_ms GL_UNITS(ms) = 0.0;        // flow-weighted mean over query edges
  double p99_ms GL_UNITS(ms) = 0.0;         // unweighted p99 over query edges
  // mean_ms split into its two terms, flow-weighted the same way: the
  // responder's service time × queue factor, and the network round trip
  // (2 × one-way hops). Their sum equals mean_ms up to rounding.
  double queue_ms GL_UNITS(ms) = 0.0;
  double network_ms GL_UNITS(ms) = 0.0;
  int query_edges = 0;
  double sla_violation_rate GL_UNITS(dimensionless) = 0.0;
};

class LatencyModel {
 public:
  LatencyModel(const Topology& topo, LatencyOptions opts = {});

  [[nodiscard]] TctResult ComputeTct(const Workload& workload,
                                     const Placement& placement,
                                     std::span<const Resource> demands,
                                     std::span<const std::uint8_t> active,
                                     const TrafficEstimate& traffic) const;

  // Effective queueing factor for a server at `utilization` (exposed for
  // tests and the ablation benches).
  [[nodiscard]] double QueueFactor(double utilization GL_UNITS(dimensionless)) const
      GL_UNITS(dimensionless);
  [[nodiscard]] double CongestionFactor(
      double link_utilization GL_UNITS(dimensionless)) const GL_UNITS(dimensionless);

 private:
  const Topology& topo_;
  LatencyOptions opts_;
};

}  // namespace gl
