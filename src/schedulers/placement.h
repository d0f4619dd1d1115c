// Container → server assignments and the placement bookkeeping shared by all
// scheduling policies.
#pragma once

#include <span>
#include <vector>

#include "common/ids.h"
#include "common/resource.h"
#include "topology/topology.h"

namespace gl {

struct Placement {
  // Indexed by ContainerId; invalid() = not placed (inactive container or
  // admission failure).
  std::vector<ServerId> server_of;
  // Eq. (4)/(5) bandwidth the placement reserves on each node's uplink,
  // indexed by NodeId: filled on the topology's checked uplinks, 0 on the
  // rest, and empty when no uplink was checked.
  std::vector<double> uplink_reserved_mbps GL_UNITS(bits_per_sec);

  [[nodiscard]] ServerId of(ContainerId c) const {
    const auto i = static_cast<std::size_t>(c.value());
    return i < server_of.size() ? server_of[i] : ServerId::invalid();
  }
  [[nodiscard]] int num_placed() const;
  [[nodiscard]] int NumActiveServers() const;
  // Containers placed on a different server than in `before` (newly placed
  // containers do not count; removed ones do not count).
  [[nodiscard]] int MigrationsFrom(const Placement& before) const;
};

// Aggregate per-server loads for a placement.
std::vector<Resource> ServerLoads(const Placement& p,
                                  std::span<const Resource> demands,
                                  int num_servers);

// Mutable packing state used while a policy assigns containers one by one.
class PackingState {
 public:
  explicit PackingState(const Topology& topo);

  // True if `demand` fits on `s` with every dimension at most
  // `max_utilization` of capacity.
  [[nodiscard]] bool Fits(ServerId s, const Resource& demand,
                          double max_utilization GL_UNITS(dimensionless)) const;
  void Add(ServerId s, const Resource& demand);

  [[nodiscard]] const Resource& load(ServerId s) const {
    return loads_[static_cast<std::size_t>(s.value())];
  }
  [[nodiscard]] const Resource& capacity(ServerId s) const;
  // Dominant-share utilization of the server.
  [[nodiscard]] double Utilization(ServerId s) const GL_UNITS(dimensionless);
  [[nodiscard]] bool IsEmpty(ServerId s) const {
    return loads_[static_cast<std::size_t>(s.value())].IsZero();
  }
  [[nodiscard]] int num_servers() const {
    return static_cast<int>(loads_.size());
  }

 private:
  const Topology& topo_;
  std::vector<Resource> loads_;
};

}  // namespace gl
