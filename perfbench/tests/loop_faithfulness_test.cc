// Loop faithfulness: the benchmark's per-layer epoch loop must do exactly
// the work ExperimentRunner::Run does. On reduced versions of the
// benchmark's scenarios, every epoch's power, TCT, migrations, placement
// accounting, audit findings and placement hash must match the runner's
// bit for bit; otherwise the outside timers would be timing something
// other than the real epoch.
//
//   loop_faithfulness_test    (exit 0 = pass; one line per mismatch)
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "epoch_loop.h"

namespace perfbench {
namespace {

int g_failures = 0;

template <typename T>
void ExpectEq(const std::string& what, int epoch, const T& runner,
              const T& loop) {
  if (runner == loop) return;
  ++g_failures;
  std::printf("FAIL %s epoch %d: runner %s, loop %s\n", what.c_str(), epoch,
              std::to_string(runner).c_str(), std::to_string(loop).c_str());
}

// Fig 13 at 1/43 scale: the same server shape and containers per server on
// an 8-ary fat tree (128 servers, 1152 containers).
std::unique_ptr<World> ReducedMsr(int repartition_interval) {
  auto w = std::make_unique<World>();
  const gl::Resource server_cap{.cpu = 7200, .mem_gb = 1536,
                                .net_mbps = 10000};
  w->topo = gl::Topology::FatTree(8, server_cap, 10000.0);
  gl::MsrScenarioOptions sopts;
  sopts.trace_vertices = 128;
  sopts.num_epochs = 8;
  sopts.epoch_minutes = 240.0;
  w->scenario = gl::MakeMsrLargeScaleScenario(sopts);
  w->eval.server_power = gl::ServerPowerModel::DellR940();
  w->eval.switch_models.assign(static_cast<std::size_t>(w->topo.num_levels()),
                               gl::SwitchPowerModel::Altoline6940());
  w->eval.latency.per_hop_ms = 2.0;
  w->eval.latency.burst_amplification = 0.05;
  w->eval.latency.sla_ms = 100.0;
  w->gold.repartition_interval = repartition_interval;
  w->path = DecisionPath::kPlace;
  w->pass_epochs = sopts.num_epochs;
  return w;
}

// The azure_controller workload over a shorter horizon, through
// EpochController::Step.
std::unique_ptr<World> ReducedAzure() {
  auto w = MakeWorld("azure_controller");
  gl::AzureScenarioOptions sopts;
  sopts.num_epochs = 120;
  w->scenario = gl::MakeAzureMixScenario(sopts);
  w->pass_epochs = sopts.num_epochs;
  return w;
}

void CheckAgainstRunner(const std::string& label, const World& world) {
  gl::RunnerOptions ropts = world.eval;
  ropts.audit = true;
  ropts.record_state_hashes = true;
  const gl::ExperimentRunner runner(*world.scenario, world.topo, ropts);
  gl::GoldilocksScheduler scheduler(world.gold);
  const gl::ExperimentResult expected = runner.Run(scheduler);

  EpochLoop loop(world);
  int timed_place_calls = 0;
  for (int e = 0; e < world.pass_epochs; ++e) {
    const EpochOutcome got = loop.RunEpoch(e);
    const gl::EpochMetrics& r = expected.epochs[static_cast<std::size_t>(e)];
    const gl::EpochMetrics& m = got.metrics;
    const std::string p = label + " ";
    ExpectEq(p + "placement hash", e,
             expected.state_hashes[static_cast<std::size_t>(e)].placement,
             got.placement_hash);
    ExpectEq(p + "active_servers", e, r.active_servers, m.active_servers);
    ExpectEq(p + "active_switches", e, r.active_switches, m.active_switches);
    ExpectEq(p + "server_watts", e, r.server_watts, m.server_watts);
    ExpectEq(p + "network_watts", e, r.network_watts, m.network_watts);
    ExpectEq(p + "total_watts", e, r.total_watts, m.total_watts);
    ExpectEq(p + "utilization", e, r.avg_active_utilization,
             m.avg_active_utilization);
    ExpectEq(p + "mean_tct_ms", e, r.mean_tct_ms, m.mean_tct_ms);
    ExpectEq(p + "p99_tct_ms", e, r.p99_tct_ms, m.p99_tct_ms);
    ExpectEq(p + "sla_violation_rate", e, r.sla_violation_rate,
             m.sla_violation_rate);
    ExpectEq(p + "energy_per_request_j", e, r.energy_per_request_j,
             m.energy_per_request_j);
    ExpectEq(p + "migrations", e, r.migrations, m.migrations);
    ExpectEq(p + "migration_downtime_ms", e, r.migration_downtime_ms,
             m.migration_downtime_ms);
    ExpectEq(p + "placed_containers", e, r.placed_containers,
             m.placed_containers);
    ExpectEq(p + "unplaced_containers", e, r.unplaced_containers,
             m.unplaced_containers);
    ExpectEq(p + "audit_findings", e, r.audit_findings, m.audit_findings);
    timed_place_calls += got.layer.place > 0.0;
  }
  // The loop's outside timers must have seen every Place call.
  ExpectEq(label + " timed Place calls", -1, world.pass_epochs,
           timed_place_calls);
  std::printf("%s: %d epochs compared\n", label.c_str(), world.pass_epochs);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  CheckAgainstRunner("msr repartition", *ReducedMsr(1));
  CheckAgainstRunner("msr reuse", *ReducedMsr(INT_MAX));
  CheckAgainstRunner("azure controller", *ReducedAzure());
  if (g_failures > 0) {
    std::printf("%d mismatches\n", g_failures);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
