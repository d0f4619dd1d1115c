// The Goldilocks scheduler (Sec. III: symmetric topologies).
//
// Placement pipeline per epoch:
//   1. Build the container graph for the active containers.
//   2. Recursively bipartition it (min-cut, balanced) until every group's
//      aggregate demand fits one server packed to the Peak Energy Efficiency
//      ceiling (70% CPU/network by default; memory has its own ceiling —
//      RAM draws little dynamic power, so there is no PEE argument for
//      leaving 30% of it idle).
//   3. Walk groups in recursion-tree (locality) order and servers in
//      topology (left-most) order, assigning each group to the next server
//      it fits on. Sibling groups land on adjacent servers — the same rack
//      or pod — which is exactly the capacity-graph max-cut assignment of
//      the paper, computed directly on the topology tree. A group that fits
//      no server is spilled container by container. If a container is left
//      with no server, a second walk lays its group first and is kept if
//      it places more.
//
// Asymmetric topologies (Sec. IV) run the same walk. Servers are fitted
// against their own capacities, and where an uplink carries less than the
// NICs beneath it, every placement must also keep the Eq. (4)/(5)
// reservations (core/uplink_reservations.h) within that uplink; the
// placement carries the reservations it booked. Options cover the paper's
// ablations (PEE ceiling, locality on/off).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/graph_builder.h"
#include "graph/partitioner.h"
#include "schedulers/scheduler.h"

namespace gl {

struct GoldilocksOptions {
  // Packing ceiling at the Peak Energy Efficiency point (CPU & network).
  double pee_utilization = 0.70;
  // Ablation hook: when false, groups are assigned to servers in a
  // deterministic shuffled order with no relation to the recursion tree,
  // destroying inter-group locality while keeping identical packing.
  bool locality_order = true;
  // Epochs between full re-partitions; between them the previous grouping
  // is re-packed with fresh demands (and re-partitioned anyway if any group
  // outgrew a server).
  int repartition_interval = 1;
  // When a re-partition is due and a previous grouping exists, repair it
  // incrementally (graph/incremental.h — the paper's Sec. IV-C future
  // work) instead of running a fresh recursive partition. Bounds migration
  // churn at a small cost in cut quality.
  bool incremental_repartition = false;
  PartitionOptions partition;
};

class UplinkReservations;

class GoldilocksScheduler final : public Scheduler {
 public:
  explicit GoldilocksScheduler(GoldilocksOptions opts = {});
  ~GoldilocksScheduler() override;

  [[nodiscard]] const std::string& name() const override { return name_; }
  Placement Place(const SchedulerInput& input) override;
  // Digest of the partition cache (grouping, recursion paths, group →
  // server pins) — the mutable state that steers placements across epochs.
  [[nodiscard]] std::uint64_t StateDigest() const override;

  // Grouping produced by the last Place() call (group id per ContainerId,
  // -1 for inactive) — exposed for the Fig. 7 visualisations and tests.
  // Recorded once per grouping, not once per call.
  [[nodiscard]] const std::vector<int>& last_grouping() const;
  [[nodiscard]] int last_num_groups() const;
  // Repartitions whose root bisection reused the coarsening kept from an
  // earlier one (PartitionMemo) — exposed for tests.
  [[nodiscard]] std::uint64_t partition_memo_hits() const;

 private:
  struct PartitionCache;

  // Returns groups as container-id lists, in the order they should be laid
  // onto servers: the cached grouping, valid until the next call.
  const std::vector<std::vector<ContainerId>>& PartitionContainers(
      const SchedulerInput& input);

  // Lays the cached grouping onto servers, the groups in `first`
  // (ascending ids) ahead of the rest, and appends to `stranded` each group
  // that left a container unplaced. Books Eq. (4)/(5) reservations where the
  // topology has a checked uplink.
  Placement AssignGroups(const SchedulerInput& input,
                         std::span<const std::size_t> first,
                         std::vector<std::size_t>* stranded) const;
  // The walk itself. With kCheckUplinks, every placement must also pass
  // `uplinks`' Eq. (4)/(5) check and is booked there; without, the walk
  // never touches `uplinks`.
  template <bool kCheckUplinks>
  Placement AssignGroupsSymmetric(const SchedulerInput& input,
                                  UplinkReservations* uplinks,
                                  std::span<const std::size_t> first,
                                  std::vector<std::size_t>* stranded) const;

  std::string name_ = "Goldilocks";
  GoldilocksOptions opts_;
  std::unique_ptr<PartitionCache> cache_;
};

}  // namespace gl
