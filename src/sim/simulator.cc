#include "sim/simulator.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/epoch_controller.h"
#include "netsim/traffic.h"
#include "obs/clock.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {
namespace {

// The §8 `migration` digest: every planned step, then makespan and bytes.
std::uint64_t PlanDigest(const MigrationPlan& plan) {
  StateHasher h;
  h.MixU64(plan.steps.size());
  for (const auto& step : plan.steps) {
    h.MixId(step.container);
    h.MixId(step.from);
    h.MixId(step.to);
    h.MixI32(step.phase);
    h.MixDouble(step.transfer_ms);
  }
  h.MixDouble(plan.makespan_ms);
  h.MixDouble(plan.total_image_gb);
  return h.digest();
}

}  // namespace

EpochMetrics ExperimentResult::Average() const {
  EpochMetrics avg;
  if (epochs.empty()) return avg;
  const auto n = static_cast<double>(epochs.size());
  for (const auto& e : epochs) {
    avg.active_servers += e.active_servers;
    avg.active_switches += e.active_switches;
    avg.server_watts += e.server_watts;
    avg.network_watts += e.network_watts;
    avg.total_watts += e.total_watts;
    avg.avg_active_utilization += e.avg_active_utilization;
    avg.mean_tct_ms += e.mean_tct_ms;
    avg.p99_tct_ms += e.p99_tct_ms;
    avg.queue_tct_ms += e.queue_tct_ms;
    avg.network_tct_ms += e.network_tct_ms;
    avg.sla_violation_rate += e.sla_violation_rate;
    avg.rps += e.rps;
    avg.energy_per_request_j += e.energy_per_request_j;
    avg.watts_per_krps += e.watts_per_krps;
    avg.migrations += e.migrations;
    avg.migration_downtime_ms += e.migration_downtime_ms;
    avg.placed_containers += e.placed_containers;
    avg.unplaced_containers += e.unplaced_containers;
    avg.audit_findings += e.audit_findings;
    avg.wall_ms += e.wall_ms;
  }
  avg.active_servers = static_cast<int>(avg.active_servers / n);
  avg.active_switches = static_cast<int>(avg.active_switches / n);
  avg.server_watts /= n;
  avg.network_watts /= n;
  avg.total_watts /= n;
  avg.avg_active_utilization /= n;
  avg.mean_tct_ms /= n;
  avg.p99_tct_ms /= n;
  avg.queue_tct_ms /= n;
  avg.network_tct_ms /= n;
  avg.sla_violation_rate /= n;
  avg.rps /= n;
  avg.energy_per_request_j /= n;
  avg.watts_per_krps /= n;
  avg.migrations = static_cast<int>(avg.migrations / n);
  avg.migration_downtime_ms /= n;
  avg.placed_containers = static_cast<int>(avg.placed_containers / n);
  avg.unplaced_containers = static_cast<int>(avg.unplaced_containers / n);
  avg.audit_findings = static_cast<int>(avg.audit_findings / n);
  avg.wall_ms /= n;
  return avg;
}

ExperimentRunner::ExperimentRunner(const Scenario& scenario,
                                   const Topology& topo, RunnerOptions opts)
    : scenario_(scenario), topo_(topo), opts_(std::move(opts)) {
  if (opts_.switch_models.empty()) {
    opts_.switch_models.assign(static_cast<std::size_t>(topo.num_levels()),
                               SwitchPowerModel::Hpe3800());
  }
  GOLDILOCKS_CHECK_GE(static_cast<int>(opts_.switch_models.size()),
                      topo.num_levels());
}

ExperimentResult ExperimentRunner::Run(Scheduler& scheduler) const {
  // Wall timing only: wall_ms is informational and never feeds a decision
  // or a hash (the obs clock is the sanctioned home for steady_clock).
  const obs::WallTimer run_timer;
  obs::TraceSpan run_span("runner.run");
  // Per-epoch counter deltas only attribute correctly when this run has the
  // process-wide registry to itself (DESIGN.md §10).
  const bool log_counters =
      opts_.logger != nullptr && opts_.threads <= 1;
  ExperimentResult result;
  result.scheduler = scheduler.name();
  result.scenario = scenario_.name();

  const Workload& workload = scenario_.workload();
  const LatencyModel latency(topo_, opts_.latency);
  // The plan and the migration metric price a move with the same options.
  EpochController controller(scheduler, topo_,
                             MigrationPlannerOptions{.cost = opts_.migration});
  // Audit against what the scheduler acted on: with estimated demands a
  // true-demand overflow is a prediction miss, not a placement bug.
  if (opts_.audit) {
    controller.EnableAudit(opts_.audit_opts, opts_.audit_fail_fast,
                           &opts_.server_power);
  }
  Placement previous;
  DemandEstimator estimator(workload.containers.size(), opts_.estimator);
  std::vector<Resource> reservations;
  if (opts_.use_estimated_demands) {
    reservations.reserve(workload.containers.size());
    for (const auto& c : workload.containers) {
      reservations.push_back(GetAppProfile(c.app).reserved);
    }
  }

  for (int epoch = 0; epoch < scenario_.num_epochs(); ++epoch) {
    const obs::WallTimer epoch_timer;
    obs::TraceSpan epoch_span("runner.epoch", epoch);
    std::vector<obs::CounterValue> counters_before;
    if (log_counters) {
      counters_before = obs::MetricsRegistry::Global().SnapshotCounters(
          obs::MetricKind::kDeterministic);
    }

    const auto demands = scenario_.DemandsAt(epoch);
    const auto active = scenario_.ActiveAt(epoch);
    // What the scheduler believes: the oracle, or predictions from history.
    std::vector<Resource> believed;
    if (opts_.use_estimated_demands) {
      believed = estimator.observations() > 0 ? estimator.Predict(reservations)
                                              : reservations;
    }
    EpochDecision decision = controller.Step(
        workload, opts_.use_estimated_demands ? believed : demands, active);
    const Placement& placement = decision.placement;
    if (opts_.use_estimated_demands) estimator.Observe(demands);

    EpochMetrics m;
    m.epoch = epoch;
    m.audit_findings = decision.audit_findings;

    // Placement accounting.
    int expected = 0;
    for (const auto a : active) expected += a;
    m.placed_containers = placement.num_placed();
    m.unplaced_containers = expected - m.placed_containers;

    // Server power.
    std::vector<Resource> loads;
    std::vector<std::uint8_t> server_active(
        static_cast<std::size_t>(topo_.num_servers()), 0);
    {
      obs::TraceSpan span("epoch.server_power");
      loads = ServerLoads(placement, demands, topo_.num_servers());
      double util_sum = 0.0;
      for (int s = 0; s < topo_.num_servers(); ++s) {
        const auto si = static_cast<std::size_t>(s);
        const bool on = !loads[si].IsZero();
        server_active[si] = on || !opts_.power_off_idle_servers;
        if (!server_active[si]) continue;
        const auto& cap = topo_.server_capacity(ServerId{s});
        const double cpu_util = cap.cpu > 0.0 ? loads[si].cpu / cap.cpu : 0.0;
        m.server_watts += opts_.server_power.Power(cpu_util);
        if (on) {
          ++m.active_servers;
          util_sum += loads[si].DominantShare(cap);
        }
      }
      m.avg_active_utilization =
          m.active_servers > 0 ? util_sum / m.active_servers : 0.0;
    }

    // Network traffic, gating and power.
    TrafficEstimate traffic;
    {
      obs::TraceSpan span("epoch.network");
      traffic = EstimateTraffic(workload, placement, demands, active, topo_);
      const NetworkPowerResult net = ComputeNetworkPower(
          topo_, server_active, traffic.node_uplink_mbps, opts_.switch_models,
          opts_.gating);
      m.network_watts = net.watts;
      m.active_switches = net.active_switches;
      m.total_watts = m.server_watts + m.network_watts;
    }

    // Task completion time and energy per request.
    {
      obs::TraceSpan span("epoch.tct");
      const TctResult tct =
          latency.ComputeTct(workload, placement, demands, active, traffic);
      m.mean_tct_ms = tct.mean_ms;
      m.p99_tct_ms = tct.p99_ms;
      m.queue_tct_ms = tct.queue_ms;
      m.network_tct_ms = tct.network_ms;
      m.sla_violation_rate = tct.sla_violation_rate;
      m.rps = scenario_.TotalRpsAt(epoch);
      m.energy_per_request_j = (m.total_watts / 1000.0) * m.mean_tct_ms;
      m.watts_per_krps = m.rps > 0.0 ? m.total_watts / (m.rps / 1000.0) : 0.0;
    }

    // Migration cost vs the previous epoch, on the true demands.
    if (!previous.server_of.empty()) {
      obs::TraceSpan span("epoch.migration");
      const MigrationCost mig = ComputeMigrationCost(
          previous, placement, workload, demands, opts_.migration);
      m.migrations = mig.migrations;
      m.migration_downtime_ms = mig.total_downtime_ms;
    }

    if (opts_.record_state_hashes) {
      EpochStateHash h;
      h.epoch = epoch;
      h.placement = HashAssignment(placement.server_of);
      h.loads = HashLoads(loads);
      StateHasher power;
      power.MixDouble(m.server_watts);
      power.MixDouble(m.network_watts);
      power.MixDouble(m.total_watts);
      power.MixI32(m.active_servers);
      power.MixI32(m.active_switches);
      h.power = power.digest();
      h.migration = PlanDigest(decision.plan);
      h.rng = scheduler.StateDigest();
      result.state_hashes.push_back(h);
    }

    m.wall_ms = epoch_timer.ElapsedMs();
    result.epochs.push_back(m);

    if (opts_.logger != nullptr) {
      obs::EpochRecord rec;
      rec.scheduler = result.scheduler;
      rec.scenario = result.scenario;
      rec.epoch = m.epoch;
      rec.active_servers = m.active_servers;
      rec.active_switches = m.active_switches;
      rec.server_watts = m.server_watts;
      rec.network_watts = m.network_watts;
      rec.total_watts = m.total_watts;
      rec.avg_active_utilization = m.avg_active_utilization;
      rec.mean_tct_ms = m.mean_tct_ms;
      rec.p99_tct_ms = m.p99_tct_ms;
      rec.queue_tct_ms = m.queue_tct_ms;
      rec.network_tct_ms = m.network_tct_ms;
      rec.energy_per_request_j = m.energy_per_request_j;
      rec.migrations = m.migrations;
      rec.placed_containers = m.placed_containers;
      rec.unplaced_containers = m.unplaced_containers;
      rec.audit_findings = m.audit_findings;
      if (log_counters) {
        rec.counters = obs::MetricsRegistry::DeltaCounters(
            counters_before, obs::MetricsRegistry::Global().SnapshotCounters(
                                 obs::MetricKind::kDeterministic));
      }
      if (opts_.record_state_hashes) {
        const EpochStateHash& h = result.state_hashes.back();
        rec.has_hash = true;
        rec.hash_placement = h.placement;
        rec.hash_loads = h.loads;
        rec.hash_power = h.power;
        rec.hash_migration = h.migration;
        rec.hash_rng = h.rng;
      }
      rec.wall_ms = m.wall_ms;
      // Informational gauges ride the strippable "timings" tail: sample
      // peak RSS here (obs/memory.h), then snapshot everything the epoch's
      // instrumentation published (pool utilization, arena peaks, ...).
      static obs::Gauge& rss_gauge = obs::MetricsRegistry::Global().GetGauge(
          "process.peak_rss_bytes", obs::MetricKind::kInformational);
      rss_gauge.Set(static_cast<double>(obs::PeakRssBytes()));
      rec.info_gauges = obs::MetricsRegistry::Global().SnapshotGauges(
          obs::MetricKind::kInformational);
      opts_.logger->WriteEpoch(rec);
    }

    previous = std::move(decision.placement);
  }
  result.audit = controller.audit_report();
  result.wall_ms = run_timer.ElapsedMs();
  return result;
}

std::vector<ExperimentResult> ExperimentRunner::RunMany(
    const std::vector<Scheduler*>& schedulers) const {
  obs::TraceSpan span("runner.run_many",
                      static_cast<std::int64_t>(schedulers.size()));
  std::vector<ExperimentResult> results(schedulers.size());
  ThreadPool pool(opts_.threads);
  // Each task touches only its own scheduler and result slot; the runner
  // itself is read-only during Run().
  pool.ParallelFor(schedulers.size(), [&](std::size_t i) {
    GOLDILOCKS_CHECK(schedulers[i] != nullptr);
    results[i] = Run(*schedulers[i]);
  });
  return results;
}

}  // namespace gl
