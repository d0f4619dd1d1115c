// Epoch-driven cluster experiment runner.
//
// Replays a Scenario against one Scheduler on one Topology and records the
// paper's per-epoch metrics: active servers, server/network power, task
// completion time, energy per request, migrations, SLA violations. This is
// the engine behind the Fig. 9 / Fig. 10 / Fig. 13 benches. Each epoch's
// decision (placement, migration plan, audit) comes from one
// EpochController per run; the runner adds the demand estimator, the
// evaluation on true demands, the state hashes and the run log.
//
// Energy-per-request definition: the energy a request consumes while in the
// system, E = P_total · TCT (kW · ms = J). This couples power *and* latency,
// matching the paper's observation that policies with similar power can
// differ 3.5× in energy per request.
#pragma once

#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "common/state_hash.h"
#include "obs/run_logger.h"
#include "power/dc_power.h"
#include "power/server_power.h"
#include "schedulers/scheduler.h"
#include "sim/estimator.h"
#include "sim/latency.h"
#include "sim/migration.h"
#include "workload/scenarios.h"

namespace gl {

struct RunnerOptions {
  ServerPowerModel server_power = ServerPowerModel::Dell2018();
  // Switch model per hierarchy level (index 0 unused; defaulted by the
  // constructor to HPE 3800 testbed switches when left empty).
  std::vector<SwitchPowerModel> switch_models;
  GatingOptions gating;
  LatencyOptions latency;
  MigrationCostOptions migration;
  // Idle servers are powered off (all policies in the paper gate servers;
  // E-PVM simply never has an idle server).
  bool power_off_idle_servers = true;
  // When true, the scheduler sees DemandEstimator predictions built from
  // the previous epochs' measurements instead of the oracle demands
  // (metrics are always evaluated against the true demands). First-epoch
  // fallback is the owner's reservation.
  bool use_estimated_demands = false;
  EstimatorOptions estimator;
  // Opt-in invariant audit (src/analysis): the run's EpochController audits
  // every epoch — placement, bandwidth reservations, topology and the
  // server power model — against the demands the scheduler acted on.
  // Findings accumulate in ExperimentResult::audit; with audit_fail_fast
  // any *error* aborts the run via GOLDILOCKS_CHECK instead.
  bool audit = false;
  bool audit_fail_fast = false;
  AuditOptions audit_opts;
  // Opt-in reproducibility gate (common/state_hash.h): record a per-epoch
  // digest of the placement, server loads, power totals, migration plan and
  // the scheduler's RNG cursors in ExperimentResult::state_hashes. Two
  // same-seed runs must produce identical streams; `gl_report replay` diffs
  // them and reports the first divergent epoch and subsystem.
  bool record_state_hashes = false;
  // Opt-in observability (src/obs): when logger is set the runner streams
  // one "gl.epoch.v1" JSONL record per epoch — metrics, the deltas of the
  // deterministic counters the epoch moved, state hashes (when recorded),
  // the epoch's wall time and informational gauges. Purely additive:
  // enabling it changes no simulation state, no placement, and no
  // EpochStateHash (tested by obs_test). Counter deltas are attributed per
  // epoch only when threads == 1; a parallel RunMany shares the
  // process-wide registry across experiments, so the runner omits the
  // counters section rather than log cross-contaminated deltas.
  obs::RunLogger* logger = nullptr;
  // Worker threads for RunMany's scheduler fan-out (1 = serial). Each
  // scheduler's run is fully independent — shared state (scenario, topology,
  // options) is read-only — so every thread count produces bit-identical
  // results, state hashes included (DESIGN.md §9).
  int threads = 1;
};

struct EpochMetrics {
  int epoch = 0;
  int active_servers = 0;
  int active_switches = 0;
  double server_watts = 0.0;
  double network_watts = 0.0;
  double total_watts = 0.0;
  double avg_active_utilization = 0.0;  // dominant-share, active servers
  double mean_tct_ms = 0.0;
  double p99_tct_ms = 0.0;
  // mean_tct_ms split into server queueing and network round trip
  // (TctResult::queue_ms and network_ms).
  double queue_tct_ms = 0.0;
  double network_tct_ms = 0.0;
  double sla_violation_rate = 0.0;
  double rps = 0.0;
  double energy_per_request_j = 0.0;  // P_total(kW) × mean TCT(ms)
  double watts_per_krps = 0.0;        // plain power per throughput
  int migrations = 0;
  double migration_downtime_ms = 0.0;
  int placed_containers = 0;
  int unplaced_containers = 0;
  int audit_findings = 0;  // 0 unless RunnerOptions::audit is set
  // Wall-clock duration of this epoch's control-loop iteration.
  // Informational only: never hashed, never averaged into decisions — it
  // exists so gl_report can plot epoch-time trends (ISSUE-4 satellite).
  double wall_ms = 0.0;
};

struct ExperimentResult {
  std::string scheduler;
  std::string scenario;
  std::vector<EpochMetrics> epochs;
  // Merged findings across all epochs (empty unless RunnerOptions::audit).
  AuditReport audit;
  // One digest per epoch (empty unless RunnerOptions::record_state_hashes).
  std::vector<EpochStateHash> state_hashes;
  // Wall-clock duration of this run. Informational only — never hashed, so
  // it does not participate in the determinism contract.
  double wall_ms = 0.0;

  [[nodiscard]] EpochMetrics Average() const;
};

class ExperimentRunner {
 public:
  ExperimentRunner(const Scenario& scenario, const Topology& topo,
                   RunnerOptions opts = {});

  ExperimentResult Run(Scheduler& scheduler) const;

  // Runs every scheduler over the same scenario/topology, fanning out over
  // RunnerOptions::threads, and returns results in input order. Each entry
  // must point at a distinct scheduler object (schedulers are stateful);
  // results are bit-identical to calling Run() on each in sequence.
  std::vector<ExperimentResult> RunMany(
      const std::vector<Scheduler*>& schedulers) const;

 private:
  const Scenario& scenario_;
  const Topology& topo_;
  RunnerOptions opts_;
};

}  // namespace gl
