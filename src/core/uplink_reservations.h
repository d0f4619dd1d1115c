// Eq. (4)/(5) bandwidth reservations on a topology's checked uplinks
// (Sec. IV).
//
// Each container group is abstracted as an Oktopus-style Virtual Cluster
// [46]: containers hang off a virtual switch, and container i needs
// bandwidth B_i (its raw network demand, conservatively covering intra- and
// inter-group traffic). Group k reserves on the uplink of subtree T
//
//   R_Gk(T) = min( Σ_{q∈Gka} B_q,
//                  Σ_{r∈Gkb} B_r                       [intra, Eq. 4]
//                + Σ_{y placed} Σ_{r∈Gyb} B_r          [placed groups, Eq. 5]
//                + Σ_{z pending} Σ_{s∈Gz}  B_s )       [pending groups, Eq. 5]
//
// where component a is the part of group k inside T and component b the part
// outside; a group is pending until its first booking, so all of it counts
// as outside. Σ_k R_Gk(T) must fit T's uplink. Only checked uplinks
// (Topology::uplink_checked) are tracked: on every other uplink the NICs
// beneath bind first. Goldilocks' group walk asks Admits before each placement
// and Commits what it places.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/resource.h"
#include "topology/topology.h"

namespace gl {

class UplinkReservations {
 public:
  // Every group starts pending. Demands are indexed by ContainerId value.
  UplinkReservations(const Topology& topo,
                     std::span<const std::vector<ContainerId>> groups,
                     std::span<const Resource> demands);

  // Σ B_i over group g's members.
  [[nodiscard]] double group_bandwidth(std::size_t g) const
      GL_UNITS(bits_per_sec) {
    return group_bw_[g];
  }

  // True if booking `bw` more of group g on server s keeps every checked
  // uplink above s within its capacity.
  [[nodiscard]] bool Admits(std::size_t g, ServerId s,
                            double bw GL_UNITS(bits_per_sec)) const;
  // Books `bw` of group g on server s.
  void Commit(std::size_t g, ServerId s, double bw GL_UNITS(bits_per_sec));

  // Σ_k R_Gk on node n's uplink; 0 on an unchecked uplink.
  [[nodiscard]] double ReservedOn(NodeId n) const GL_UNITS(bits_per_sec);
  // ReservedOn() of every node, indexed by NodeId.
  [[nodiscard]] std::vector<double> PerNode() const;

 private:
  // Σ_k R_Gk on checked node ni's uplink once group g books `bw` more
  // beneath it (bw 0: as booked).
  [[nodiscard]] double ReservedWith(std::size_t ni, std::size_t g,
                                    double bw GL_UNITS(bits_per_sec)) const
      GL_UNITS(bits_per_sec);

  const Topology& topo_;
  std::vector<double> group_bw_ GL_UNITS(bits_per_sec);
  std::vector<std::uint8_t> placed_;  // group has a booking
  // Σ group_bw_ over placed and over pending groups.
  double placed_bw_ GL_UNITS(bits_per_sec) = 0.0;
  double pending_bw_ GL_UNITS(bits_per_sec) = 0.0;
  // Per node, filled on checked nodes only: Σ B booked beneath it, and each
  // group's share of that sum in first-booking order, which fixes the
  // summation order of ReservedWith.
  std::vector<double> inside_bw_ GL_UNITS(bits_per_sec);
  std::vector<std::vector<std::pair<std::size_t, double>>> inside_;
};

}  // namespace gl
