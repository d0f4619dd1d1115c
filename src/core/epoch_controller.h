// Epoch controller — the management node of Sec. V.
//
// The paper's deployment has a distinct management node that measures
// utilization, runs the placement algorithm at each epoch boundary, and
// orchestrates the CRIU checkpoint/restore moves that realize the new
// placement. This class is that control loop as a library: feed it the
// epoch's (measured or predicted) demands, get back the placement *and* the
// ordered migration plan, plus bookkeeping of what the transition costs.
//
// It is scheduler-agnostic: Goldilocks is the intended brain, but any
// Scheduler plugs in, which is how the examples compare transition costs
// across policies. ExperimentRunner (sim/simulator.h) drives one controller
// per run, so Step() is the only code that turns the previous placement and
// an epoch's demands into a placement, a migration plan and an audit. The
// class builds into gl_sim, next to the planner it calls.
#pragma once

#include <memory>
#include <span>

#include "analysis/invariant_auditor.h"
#include "power/server_power.h"
#include "schedulers/scheduler.h"
#include "sim/migration_planner.h"

namespace gl {

struct EpochDecision {
  int epoch = 0;
  Placement placement;
  MigrationPlan plan;       // how to get there from the previous epoch
  int containers_placed = 0;
  int containers_started = 0;  // new this epoch (no migration needed)
  int containers_stopped = 0;  // gone this epoch
  // Placed in both epochs, on a different server now: the paper's
  // migration count, whether or not the plan could schedule the move.
  int containers_moved = 0;
  int audit_findings = 0;  // this Step's findings (0 unless EnableAudit)
};

class EpochController {
 public:
  // Owns the scheduler.
  EpochController(std::unique_ptr<Scheduler> scheduler, const Topology& topo,
                  MigrationPlannerOptions planner_opts = {});
  // Borrows the scheduler, which must outlive the controller.
  EpochController(Scheduler& scheduler, const Topology& topo,
                  MigrationPlannerOptions planner_opts = {});

  // Runs one epoch: schedules the active containers and plans the moves
  // from the previous epoch's placement.
  EpochDecision Step(const Workload& workload,
                     std::span<const Resource> demands,
                     std::span<const std::uint8_t> active);

  // Opt-in invariant audit (src/analysis): every Step() additionally runs
  // the InvariantAuditor over the fresh placement, the topology and its
  // bandwidth reservations (plus `server_power`'s curve when given; the
  // model must outlive the controller). Findings accumulate in
  // audit_report(); with `fail_fast` any *error* aborts via
  // GOLDILOCKS_CHECK — the management node must never roll out a placement
  // it knows is corrupt.
  void EnableAudit(AuditOptions opts = {}, bool fail_fast = false,
                   const ServerPowerModel* server_power = nullptr);
  [[nodiscard]] const AuditReport& audit_report() const {
    return audit_report_;
  }

  [[nodiscard]] const Placement& current_placement() const {
    return current_;
  }
  [[nodiscard]] int epochs_run() const { return epoch_; }
  // Cumulative transition cost over all epochs so far.
  [[nodiscard]] double total_migration_makespan_ms() const {
    return total_makespan_ms_;
  }
  [[nodiscard]] double total_image_gb() const { return total_image_gb_; }

 private:
  std::unique_ptr<Scheduler> owned_;  // null when borrowed
  Scheduler& scheduler_;
  const Topology& topo_;
  MigrationPlannerOptions planner_opts_;
  Placement current_;
  int epoch_ = 0;
  double total_makespan_ms_ GL_UNITS(ms) = 0.0;
  double total_image_gb_ GL_UNITS(bytes) = 0.0;
  bool audit_ = false;
  bool audit_fail_fast_ = false;
  AuditOptions audit_opts_;
  const ServerPowerModel* audit_server_power_ = nullptr;
  AuditReport audit_report_;
};

}  // namespace gl
