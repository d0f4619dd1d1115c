#include "schedulers/placement.h"

#include <algorithm>

#include "common/check.h"

namespace gl {

int Placement::num_placed() const {
  int n = 0;
  for (const auto s : server_of) {
    if (s.valid()) ++n;
  }
  return n;
}

int Placement::NumActiveServers() const {
  std::vector<ServerId> servers;
  servers.reserve(server_of.size());
  for (const auto s : server_of) {
    if (s.valid()) servers.push_back(s);
  }
  std::sort(servers.begin(), servers.end());
  const auto end = std::unique(servers.begin(), servers.end());
  return static_cast<int>(end - servers.begin());
}

int Placement::MigrationsFrom(const Placement& before) const {
  int migrations = 0;
  const std::size_t n = std::min(server_of.size(), before.server_of.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (server_of[i].valid() && before.server_of[i].valid() &&
        server_of[i] != before.server_of[i]) {
      ++migrations;
    }
  }
  return migrations;
}

std::vector<Resource> ServerLoads(const Placement& p,
                                  std::span<const Resource> demands,
                                  int num_servers) {
  std::vector<Resource> loads(static_cast<std::size_t>(num_servers));
  const std::size_t n = std::min(p.server_of.size(), demands.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = p.server_of[i];
    if (s.valid()) {
      GOLDILOCKS_CHECK(s.value() < num_servers);
      loads[static_cast<std::size_t>(s.value())] += demands[i];
    }
  }
  return loads;
}

PackingState::PackingState(const Topology& topo)
    : topo_(topo),
      loads_(static_cast<std::size_t>(topo.num_servers())) {}

bool PackingState::Fits(ServerId s, const Resource& demand,
                        double max_utilization GL_UNITS(dimensionless)) const {
  const Resource after = loads_[static_cast<std::size_t>(s.value())] + demand;
  return after.FitsIn(topo_.server_capacity(s) * max_utilization);
}

void PackingState::Add(ServerId s, const Resource& demand) {
  loads_[static_cast<std::size_t>(s.value())] += demand;
}

const Resource& PackingState::capacity(ServerId s) const {
  return topo_.server_capacity(s);
}

double PackingState::Utilization(ServerId s) const GL_UNITS(dimensionless) {
  return loads_[static_cast<std::size_t>(s.value())].DominantShare(
      topo_.server_capacity(s));
}

}  // namespace gl
