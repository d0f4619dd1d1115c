#include "epoch_loop.h"

#include <chrono>
#include <climits>
#include <ctime>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/state_hash.h"
#include "netsim/traffic.h"
#include "obs/trace.h"
#include "power/dc_power.h"
#include "sim/migration.h"

namespace perfbench {
namespace {

// Fig 13 scale: the MSR search trace on a 28-ary fat tree, set up as in
// bench/bench_fig13_large_scale.cpp (22 four-hour epochs over 88 hours).
std::unique_ptr<World> MakeFig13World(int repartition_interval,
                                      int pass_epochs) {
  auto w = std::make_unique<World>();
  // Dell R940-class servers: 72 cores, 1.5 TB, 10G NIC.
  const gl::Resource server_cap{.cpu = 7200, .mem_gb = 1536,
                                .net_mbps = 10000};
  w->topo = gl::Topology::FatTree(28, server_cap, 10000.0);
  gl::MsrScenarioOptions sopts;
  sopts.num_epochs = 22;
  sopts.epoch_minutes = 240.0;
  w->scenario = gl::MakeMsrLargeScaleScenario(sopts);
  w->eval.server_power = gl::ServerPowerModel::DellR940();
  w->eval.switch_models.assign(static_cast<std::size_t>(w->topo.num_levels()),
                               gl::SwitchPowerModel::Altoline6940());
  w->eval.latency.per_hop_ms = 2.0;
  w->eval.latency.burst_amplification = 0.05;
  w->eval.latency.sla_ms = 100.0;
  w->gold.repartition_interval = repartition_interval;
  w->gold.partition.threads = 1;
  w->path = DecisionPath::kPlace;
  w->pass_epochs = pass_epochs;
  return w;
}

// Fig 10: the Azure application mix (149-221 live containers) on the
// 16-server testbed, driven through the management node.
std::unique_ptr<World> MakeAzureWorld(int epochs) {
  auto w = std::make_unique<World>();
  w->topo = gl::Topology::Testbed16();
  gl::AzureScenarioOptions sopts;
  sopts.num_epochs = epochs;
  w->scenario = gl::MakeAzureMixScenario(sopts);
  // ExperimentRunner's default switch models for this topology.
  w->eval.switch_models.assign(static_cast<std::size_t>(w->topo.num_levels()),
                               gl::SwitchPowerModel::Hpe3800());
  w->gold.partition.threads = 1;
  w->path = DecisionPath::kController;
  w->pass_epochs = epochs;
  return w;
}

// Times Scheduler::Place from outside the library, whichever caller drives
// it (the loop itself, or EpochController::Step).
class TimedScheduler final : public gl::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<gl::Scheduler> inner, double* place_ms)
      : inner_(std::move(inner)), place_ms_(place_ms) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  gl::Placement Place(const gl::SchedulerInput& input) override {
    const gl::obs::TraceSpan span("bench.place");
    const std::int64_t t0 = WallNanos();
    gl::Placement p = inner_->Place(input);
    *place_ms_ = static_cast<double>(WallNanos() - t0) / 1e6;
    return p;
  }
  [[nodiscard]] std::uint64_t StateDigest() const override {
    return inner_->StateDigest();
  }

 private:
  std::unique_ptr<gl::Scheduler> inner_;
  double* place_ms_;
};

// Runs `fn` under a "bench.*" span and stores its wall time in `ms`.
template <typename Fn>
auto TimedCall(const char* span_name, double& ms, Fn&& fn) {
  const gl::obs::TraceSpan span(span_name);
  const std::int64_t t0 = WallNanos();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    ms = static_cast<double>(WallNanos() - t0) / 1e6;
  } else {
    auto result = fn();
    ms = static_cast<double>(WallNanos() - t0) / 1e6;
    return result;
  }
}

double CutWeight(const gl::Workload& workload, const gl::Placement& p) {
  double cut = 0.0;
  for (const auto& e : workload.edges) {
    if (e.flows <= 0.0) continue;
    const gl::ServerId a = p.of(e.a);
    const gl::ServerId b = p.of(e.b);
    if (a.valid() && b.valid() && a != b) cut += e.flows;
  }
  return cut;
}

}  // namespace

std::int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::unique_ptr<World> MakeWorld(std::string_view workload) {
  // Every epoch repartitions; a pass covers the first day of the horizon.
  if (workload == "fig13_repartition") {
    return MakeFig13World(/*repartition_interval=*/1, /*pass_epochs=*/6);
  }
  // The grouping is never refreshed on schedule: only the drift guard
  // inside Place can force a repartition. A pass is the whole horizon.
  if (workload == "fig13_reuse") {
    return MakeFig13World(/*repartition_interval=*/INT_MAX,
                          /*pass_epochs=*/22);
  }
  if (workload == "azure_controller") {
    return MakeAzureWorld(/*epochs=*/3000);
  }
  return nullptr;
}

EpochLoop::EpochLoop(const World& world)
    : world_(world),
      latency_(world.topo, world.eval.latency),
      auditor_(world.eval.audit_opts) {
  GOLDILOCKS_CHECK(world.scenario != nullptr);
  GOLDILOCKS_CHECK_GE(static_cast<int>(world.eval.switch_models.size()),
                      world.topo.num_levels());
  Restart();
}

EpochLoop::~EpochLoop() = default;

void EpochLoop::Restart() {
  controller_.reset();
  scheduler_.reset();
  previous_ = gl::Placement{};
  auto timed = std::make_unique<TimedScheduler>(
      std::make_unique<gl::GoldilocksScheduler>(world_.gold), &place_ms_);
  if (world_.path == DecisionPath::kController) {
    controller_ = std::make_unique<gl::EpochController>(std::move(timed),
                                                        world_.topo);
  } else {
    scheduler_ = std::move(timed);
  }
}

EpochOutcome EpochLoop::RunEpoch(int epoch) {
  const gl::Workload& workload = world_.scenario->workload();
  const gl::Topology& topo = world_.topo;
  const gl::RunnerOptions& eval = world_.eval;
  EpochOutcome out;
  gl::EpochMetrics& m = out.metrics;
  m.epoch = epoch;
  LayerMs& t = out.layer;
  gl::Placement placement;
  gl::AuditReport report;

  const std::int64_t wall0 = WallNanos();
  const std::int64_t cpu0 = ProcessCpuNanos();
  {
    const gl::obs::TraceSpan epoch_span("bench.epoch", epoch);
    std::vector<gl::Resource> demands;
    std::vector<std::uint8_t> active;
    TimedCall("bench.demands", t.demands, [&] {
      demands = world_.scenario->DemandsAt(epoch);
      active = world_.scenario->ActiveAt(epoch);
    });

    placement = TimedCall("bench.decide", t.decide, [&] {
      if (controller_ != nullptr) {
        return controller_->Step(workload, demands, active).placement;
      }
      gl::SchedulerInput input;
      input.workload = &workload;
      input.demands = demands;
      input.active = active;
      input.topology = &topo;
      input.previous = previous_.server_of.empty() ? nullptr : &previous_;
      return scheduler_->Place(input);
    });
    t.place = place_ms_;

    report = TimedCall("bench.audit", t.audit, [&] {
      gl::SystemView view;
      view.topology = &topo;
      view.workload = &workload;
      view.demands = demands;
      view.active = active;
      view.placement = &placement;
      view.server_power = &eval.server_power;
      return auditor_.AuditAll(view);
    });
    m.audit_findings = static_cast<int>(report.findings.size());

    int expected = 0;
    for (const auto a : active) expected += a;
    m.placed_containers = placement.num_placed();
    m.unplaced_containers = expected - m.placed_containers;

    // Server power, as ExperimentRunner::Run computes it.
    std::vector<std::uint8_t> server_active(
        static_cast<std::size_t>(topo.num_servers()), 0);
    TimedCall("bench.server_loads", t.server_loads, [&] {
      const auto loads =
          gl::ServerLoads(placement, demands, topo.num_servers());
      double util_sum = 0.0;
      for (int s = 0; s < topo.num_servers(); ++s) {
        const auto si = static_cast<std::size_t>(s);
        const bool on = !loads[si].IsZero();
        server_active[si] = on || !eval.power_off_idle_servers;
        if (!server_active[si]) continue;
        const auto& cap = topo.server_capacity(gl::ServerId{s});
        const double cpu_util = cap.cpu > 0.0 ? loads[si].cpu / cap.cpu : 0.0;
        m.server_watts += eval.server_power.Power(cpu_util);
        if (on) {
          ++m.active_servers;
          util_sum += loads[si].DominantShare(cap);
        }
      }
      m.avg_active_utilization =
          m.active_servers > 0 ? util_sum / m.active_servers : 0.0;
    });

    const gl::TrafficEstimate traffic =
        TimedCall("bench.traffic", t.traffic, [&] {
          return gl::EstimateTraffic(workload, placement, demands, active,
                                     topo);
        });
    const gl::NetworkPowerResult net =
        TimedCall("bench.network", t.network, [&] {
          return gl::ComputeNetworkPower(topo, server_active,
                                         traffic.node_uplink_mbps,
                                         eval.switch_models, eval.gating);
        });
    m.network_watts = net.watts;
    m.active_switches = net.active_switches;
    m.total_watts = m.server_watts + m.network_watts;

    const gl::TctResult tct = TimedCall("bench.tct", t.tct, [&] {
      return latency_.ComputeTct(workload, placement, demands, active,
                                 traffic);
    });
    m.mean_tct_ms = tct.mean_ms;
    m.p99_tct_ms = tct.p99_ms;
    m.sla_violation_rate = tct.sla_violation_rate;
    m.rps = world_.scenario->TotalRpsAt(epoch);
    m.energy_per_request_j = (m.total_watts / 1000.0) * m.mean_tct_ms;
    m.watts_per_krps = m.rps > 0.0 ? m.total_watts / (m.rps / 1000.0) : 0.0;

    if (!previous_.server_of.empty()) {
      const gl::MigrationCost mig =
          TimedCall("bench.migration_cost", t.migration_cost, [&] {
            return gl::ComputeMigrationCost(previous_, placement, workload,
                                            demands, eval.migration);
          });
      m.migrations = mig.migrations;
      m.migration_downtime_ms = mig.total_downtime_ms;
    }
  }
  out.wall_ms = static_cast<double>(WallNanos() - wall0) / 1e6;
  out.cpu_ms = static_cast<double>(ProcessCpuNanos() - cpu0) / 1e6;

  out.audit_errors = report.errors();
  out.audit_warnings = report.warnings();
  out.cut_weight = CutWeight(workload, placement);
  out.placement_hash = gl::HashAssignment(placement.server_of);
  previous_ = std::move(placement);
  return out;
}

}  // namespace perfbench
