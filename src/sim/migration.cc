#include "sim/migration.h"

#include <algorithm>

namespace gl {

MigrationCost ComputeMigrationCost(const Placement& before,
                                   const Placement& after,
                                   const Workload& workload,
                                   std::span<const Resource> demands,
                                   const MigrationCostOptions& opts) {
  MigrationCost cost;
  const std::size_t n =
      std::min(before.server_of.size(), after.server_of.size());
  for (std::size_t i = 0; i < n && i < workload.containers.size(); ++i) {
    const auto from = before.server_of[i];
    const auto to = after.server_of[i];
    if (!from.valid() || !to.valid() || from == to) continue;

    ++cost.migrations;
    cost.total_downtime_ms += opts.freeze_ms +
                              ImageTransferMs(demands[i].mem_gb, opts) +
                              opts.restore_ms;
    cost.traffic_gb += demands[i].mem_gb * opts.image_overhead;
  }
  return cost;
}

}  // namespace gl
