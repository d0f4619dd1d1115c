// CRIU-style container migration cost model (Sec. V).
//
// Moving a container between epochs checkpoint-freezes the process tree,
// ships the image (≈ resident memory) plus volume delta over the network
// (rsync in the testbed), and restores at the destination. Costs scale with
// the container's memory footprint and the available transfer bandwidth.
#pragma once

#include <span>

#include "schedulers/placement.h"
#include "workload/container.h"

namespace gl {

struct MigrationCostOptions {
  double freeze_ms GL_UNITS(ms) = 250.0;     // CRIU checkpoint freeze
  double restore_ms GL_UNITS(ms) = 300.0;    // restore + re-attach (VxLAN)
  double transfer_mbps GL_UNITS(bits_per_sec) = 800.0;  // rsync throughput
  double image_overhead GL_UNITS(dimensionless) = 1.10;  // image vs RSS
};

// Time to ship one container's CRIU image (resident memory × overhead)
// over the rsync link. Freeze and restore are the caller's to add.
inline double ImageTransferMs(double mem_gb GL_UNITS(bytes),
                              const MigrationCostOptions& opts) GL_UNITS(ms) {
  const double image_gb GL_UNITS(bytes) = mem_gb * opts.image_overhead;
  // GB → Gbit: ×8; Mbps → Gbit/s: ÷1000; seconds → ms: ×1000.
  return image_gb * 8.0 / (opts.transfer_mbps / 1000.0) * 1000.0;
}

struct MigrationCost {
  int migrations = 0;
  double total_downtime_ms GL_UNITS(ms) = 0.0;  // Σ freeze+transfer+restore
  double traffic_gb GL_UNITS(bytes) = 0.0;  // checkpoint bytes moved
};

MigrationCost ComputeMigrationCost(const Placement& before,
                                   const Placement& after,
                                   const Workload& workload,
                                   std::span<const Resource> demands,
                                   const MigrationCostOptions& opts = {});

}  // namespace gl
