#include "core/epoch_controller.h"

#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace gl {
namespace {

Scheduler& Deref(const std::unique_ptr<Scheduler>& scheduler) {
  GOLDILOCKS_CHECK(scheduler != nullptr);
  return *scheduler;
}

}  // namespace

EpochController::EpochController(std::unique_ptr<Scheduler> scheduler,
                                 const Topology& topo,
                                 MigrationPlannerOptions planner_opts)
    : EpochController(Deref(scheduler), topo, planner_opts) {
  owned_ = std::move(scheduler);
}

EpochController::EpochController(Scheduler& scheduler, const Topology& topo,
                                 MigrationPlannerOptions planner_opts)
    : scheduler_(scheduler), topo_(topo), planner_opts_(planner_opts) {}

void EpochController::EnableAudit(AuditOptions opts, bool fail_fast,
                                  const ServerPowerModel* server_power) {
  audit_ = true;
  audit_fail_fast_ = fail_fast;
  audit_opts_ = opts;
  audit_server_power_ = server_power;
}

EpochDecision EpochController::Step(const Workload& workload,
                                    std::span<const Resource> demands,
                                    std::span<const std::uint8_t> active) {
  obs::TraceSpan span("controller.step", epoch_);
  EpochDecision decision;
  decision.epoch = epoch_;

  SchedulerInput input;
  input.workload = &workload;
  input.demands = demands;
  input.active = active;
  input.topology = &topo_;
  input.previous = current_.server_of.empty() ? nullptr : &current_;
  decision.placement = scheduler_.Place(input);
  decision.containers_placed = decision.placement.num_placed();

  if (!current_.server_of.empty()) {
    const std::size_t m =
        std::min(current_.server_of.size(), decision.placement.server_of.size());
    for (std::size_t i = 0; i < m; ++i) {
      const ServerId from = current_.server_of[i];
      const ServerId to = decision.placement.server_of[i];
      decision.containers_started += !from.valid() && to.valid();
      decision.containers_stopped += from.valid() && !to.valid();
      decision.containers_moved += from.valid() && to.valid() && from != to;
    }
    decision.plan = PlanMigrations(current_, decision.placement, workload,
                                   demands, topo_, planner_opts_);
    total_makespan_ms_ += decision.plan.makespan_ms;
    total_image_gb_ += decision.plan.total_image_gb;
  } else {
    decision.containers_started = decision.containers_placed;
  }

  if (audit_) {
    obs::TraceSpan audit_span("epoch.audit");
    const InvariantAuditor auditor(audit_opts_);
    SystemView view;
    view.topology = &topo_;
    view.workload = &workload;
    view.demands = demands;
    view.active = active;
    view.placement = &decision.placement;
    view.server_power = audit_server_power_;
    const AuditReport report = auditor.AuditAll(view);
    if (audit_fail_fast_ && report.errors() > 0) {
      GOLDILOCKS_CHECK_MSG(false, report.ToString().c_str());
    }
    decision.audit_findings = static_cast<int>(report.findings.size());
    audit_report_.Append(report);
  }

  current_ = decision.placement;
  ++epoch_;
  return decision;
}

}  // namespace gl
