#include "core/uplink_reservations.h"

#include <algorithm>

namespace gl {

UplinkReservations::UplinkReservations(
    const Topology& topo, std::span<const std::vector<ContainerId>> groups,
    std::span<const Resource> demands)
    : topo_(topo),
      group_bw_(groups.size(), 0.0),
      placed_(groups.size(), 0),
      inside_bw_(static_cast<std::size_t>(topo.num_nodes()), 0.0),
      inside_(static_cast<std::size_t>(topo.num_nodes())) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto c : groups[g]) {
      group_bw_[g] += demands[static_cast<std::size_t>(c.value())].net_mbps;
    }
    pending_bw_ += group_bw_[g];
  }
}

double UplinkReservations::ReservedWith(
    std::size_t ni, std::size_t g, double bw GL_UNITS(bits_per_sec)) const
    GL_UNITS(bits_per_sec) {
  // A first booking moves the group from pending to placed.
  const double moved GL_UNITS(bits_per_sec) =
      bw > 0.0 && !placed_[g] ? group_bw_[g] : 0.0;
  const double placed GL_UNITS(bits_per_sec) = placed_bw_ + moved;
  const double pending GL_UNITS(bits_per_sec) = pending_bw_ - moved;
  const double inside GL_UNITS(bits_per_sec) = inside_bw_[ni] + bw;
  // Eq. (5): traffic crossing this uplink on behalf of group k is at most
  // its inside bandwidth, and at most its own outside component plus
  // everything the other groups keep outside (placed groups' component b,
  // pending groups in full).
  const auto reserve = [&](std::size_t k, double b_in GL_UNITS(bits_per_sec)) {
    const double own_outside GL_UNITS(bits_per_sec) = group_bw_[k] - b_in;
    const double others_outside GL_UNITS(bits_per_sec) =
        (placed - group_bw_[k]) - (inside - b_in);
    return std::min(b_in,
                    own_outside + std::max(0.0, others_outside) + pending);
  };
  double total GL_UNITS(bits_per_sec) = 0.0;
  bool booked = false;
  for (const auto& [k, b_in] : inside_[ni]) {
    const bool is_g = k == g && bw > 0.0;
    booked = booked || is_g;
    total += reserve(k, is_g ? b_in + bw : b_in);
  }
  if (!booked && bw > 0.0) total += reserve(g, bw);
  return total;
}

bool UplinkReservations::Admits(std::size_t g, ServerId s,
                                double bw GL_UNITS(bits_per_sec)) const {
  for (NodeId n = topo_.server_node(s); topo_.node(n).parent.valid();
       n = topo_.node(n).parent) {
    if (topo_.uplink_checked(n) &&
        !WithinCap(ReservedWith(static_cast<std::size_t>(n.value()), g, bw),
                   topo_.uplink_capacity(n))) {
      return false;
    }
  }
  return true;
}

void UplinkReservations::Commit(std::size_t g, ServerId s,
                                double bw GL_UNITS(bits_per_sec)) {
  if (!placed_[g]) {
    placed_[g] = 1;
    placed_bw_ += group_bw_[g];
    pending_bw_ -= group_bw_[g];
  }
  for (NodeId n = topo_.server_node(s); topo_.node(n).parent.valid();
       n = topo_.node(n).parent) {
    if (!topo_.uplink_checked(n)) continue;
    const auto ni = static_cast<std::size_t>(n.value());
    inside_bw_[ni] += bw;
    auto& shares = inside_[ni];
    // The walk books a group's members in one turn: look from the back.
    const auto it = std::find_if(shares.rbegin(), shares.rend(),
                                 [g](const auto& e) { return e.first == g; });
    if (it != shares.rend()) {
      it->second += bw;
    } else {
      shares.emplace_back(g, bw);
    }
  }
}

double UplinkReservations::ReservedOn(NodeId n) const
    GL_UNITS(bits_per_sec) {
  if (!topo_.uplink_checked(n)) return 0.0;
  return ReservedWith(static_cast<std::size_t>(n.value()), 0, 0.0);
}

std::vector<double> UplinkReservations::PerNode() const {
  std::vector<double> out(static_cast<std::size_t>(topo_.num_nodes()), 0.0);
  for (int i = 0; i < topo_.num_nodes(); ++i) {
    out[static_cast<std::size_t>(i)] = ReservedOn(NodeId{i});
  }
  return out;
}

}  // namespace gl
