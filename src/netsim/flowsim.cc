#include "netsim/flowsim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {

FlowSimulator::FlowSimulator(const Topology& topo) : topo_(topo) {
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  capacity_mbps_.resize(2 * n);
  peak_utilization_.assign(2 * n, 0.0);
  for (int i = 0; i < topo.num_nodes(); ++i) {
    const auto& node = topo.node(NodeId{i});
    capacity_mbps_[static_cast<std::size_t>(2 * i)] =
        node.uplink_capacity_mbps;
    capacity_mbps_[static_cast<std::size_t>(2 * i + 1)] =
        node.uplink_capacity_mbps;
  }
}

int FlowSimulator::AddFlow(ServerId src, ServerId dst, double size_bytes) {
  GOLDILOCKS_CHECK_GE(size_bytes, 0.0);
  flows_.push_back({src, dst, size_bytes, 0.0, -1.0});
  routes_.push_back(Route(src, dst));
  return num_flows() - 1;
}

void FlowSimulator::Clear() {
  flows_.clear();
  routes_.clear();
  std::fill(peak_utilization_.begin(), peak_utilization_.end(), 0.0);
}

std::vector<int> FlowSimulator::Route(ServerId src, ServerId dst) const {
  std::vector<int> route;
  if (src == dst) return route;
  std::vector<int> down;  // collected in reverse while walking b upward
  topo_.ForEachUplinkBetween(src, dst, [&](NodeId n, int side) {
    if (side == 0) {
      route.push_back(UpIndex(n));
    } else {
      down.push_back(DownIndex(n));
    }
  });
  route.insert(route.end(), down.rbegin(), down.rend());
  return route;
}

void FlowSimulator::AllocateRates(const std::vector<int>& live) {
  // Progressive filling: repeatedly saturate the bottleneck link — the link
  // whose equal-share among its unfixed flows is smallest — and fix the
  // rates of the flows crossing it.
  std::vector<double> residual = capacity_mbps_;
  std::vector<int> unfixed_count(capacity_mbps_.size(), 0);
  std::vector<std::uint8_t> fixed(flows_.size(), 1);
  for (const int f : live) {
    fixed[static_cast<std::size_t>(f)] = 0;
    flows_[static_cast<std::size_t>(f)].rate_mbps = 0.0;
  }
  for (const int f : live) {
    if (routes_[static_cast<std::size_t>(f)].empty()) {
      // Intra-server flow: no network constraint.
      flows_[static_cast<std::size_t>(f)].rate_mbps =
          std::numeric_limits<double>::infinity();
      fixed[static_cast<std::size_t>(f)] = 1;
      continue;
    }
    for (const int l : routes_[static_cast<std::size_t>(f)]) {
      ++unfixed_count[static_cast<std::size_t>(l)];
    }
  }

  int remaining = 0;
  for (const int f : live) {
    if (!fixed[static_cast<std::size_t>(f)]) ++remaining;
  }

  while (remaining > 0) {
    // Find the bottleneck share.
    double best_share = std::numeric_limits<double>::infinity();
    int best_link = -1;
    for (std::size_t l = 0; l < capacity_mbps_.size(); ++l) {
      if (unfixed_count[l] == 0) continue;
      const double share = residual[l] / unfixed_count[l];
      if (share < best_share) {
        best_share = share;
        best_link = static_cast<int>(l);
      }
    }
    if (best_link < 0) break;  // no constrained flows remain

    // Fix every unfixed flow crossing the bottleneck at the fair share.
    for (const int f : live) {
      if (fixed[static_cast<std::size_t>(f)]) continue;
      const auto& route = routes_[static_cast<std::size_t>(f)];
      if (std::find(route.begin(), route.end(), best_link) == route.end()) {
        continue;
      }
      flows_[static_cast<std::size_t>(f)].rate_mbps = best_share;
      fixed[static_cast<std::size_t>(f)] = 1;
      --remaining;
      for (const int l : route) {
        residual[static_cast<std::size_t>(l)] -= best_share;
        --unfixed_count[static_cast<std::size_t>(l)];
      }
    }
    residual[static_cast<std::size_t>(best_link)] = 0.0;
    unfixed_count[static_cast<std::size_t>(best_link)] = 0;
  }

  // Record peak utilization.
  std::vector<double> used(capacity_mbps_.size(), 0.0);
  for (const int f : live) {
    const double r = flows_[static_cast<std::size_t>(f)].rate_mbps;
    if (!std::isfinite(r)) continue;
    for (const int l : routes_[static_cast<std::size_t>(f)]) {
      used[static_cast<std::size_t>(l)] += r;
    }
  }
  for (std::size_t l = 0; l < used.size(); ++l) {
    if (capacity_mbps_[l] > 0.0) {
      peak_utilization_[l] =
          std::max(peak_utilization_[l], used[l] / capacity_mbps_[l]);
    }
  }
}

void FlowSimulator::ComputeMaxMinRates() {
  std::vector<int> live(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    live[i] = static_cast<int>(i);
  }
  AllocateRates(live);
}

void FlowSimulator::RunToCompletion(double intra_server_ms) {
  obs::TraceSpan span("flowsim.run",
                      static_cast<std::int64_t>(flows_.size()));
  std::uint64_t rounds = 0;
  std::vector<double> remaining_bytes(flows_.size());
  std::vector<int> live;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    remaining_bytes[i] = flows_[i].size_bytes;
    if (routes_[i].empty()) {
      flows_[i].completion_ms = intra_server_ms;
    } else if (flows_[i].size_bytes <= 0.0) {
      flows_[i].completion_ms = 0.0;
    } else {
      live.push_back(static_cast<int>(i));
    }
  }

  double now_ms = 0.0;
  while (!live.empty()) {
    ++rounds;
    AllocateRates(live);
    // Time to the next completion.
    double dt_ms = std::numeric_limits<double>::infinity();
    for (const int f : live) {
      const double rate = flows_[static_cast<std::size_t>(f)].rate_mbps;
      GOLDILOCKS_CHECK_MSG(rate > 0.0, "live flow got zero rate");
      // rate Mbps = 125000 bytes/s per Mbps → bytes per ms = rate * 125.
      const double t = remaining_bytes[static_cast<std::size_t>(f)] /
                       (rate * 125.0);
      dt_ms = std::min(dt_ms, t);
    }
    now_ms += dt_ms;
    std::vector<int> still_live;
    for (const int f : live) {
      auto& rem = remaining_bytes[static_cast<std::size_t>(f)];
      rem -= flows_[static_cast<std::size_t>(f)].rate_mbps * 125.0 * dt_ms;
      if (rem <= 1e-6) {
        flows_[static_cast<std::size_t>(f)].completion_ms = now_ms;
      } else {
        still_live.push_back(f);
      }
    }
    live = std::move(still_live);
  }
  static obs::Counter& round_counter = obs::MetricsRegistry::Global().GetCounter(
      "flowsim.rounds", obs::MetricKind::kDeterministic);
  round_counter.Add(rounds);
}

double FlowSimulator::PeakUplinkUtilization(NodeId node) const {
  const auto up = static_cast<std::size_t>(UpIndex(node));
  const auto down = static_cast<std::size_t>(DownIndex(node));
  return std::max(peak_utilization_[up], peak_utilization_[down]);
}

double FlowSimulator::MeanFctMs() const {
  if (flows_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& f : flows_) sum += std::max(0.0, f.completion_ms);
  return sum / static_cast<double>(flows_.size());
}

}  // namespace gl
