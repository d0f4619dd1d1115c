// The epoch benchmark's control loop, timed layer by layer from outside.
//
// One Goldilocks epoch is the chain ExperimentRunner::Run walks: scenario
// demands -> placement decision -> invariant audit -> server loads and power
// -> traffic -> network power -> task completion time -> migration diff.
// EpochLoop replays that chain through the layers' public calls only, with
// a wall timer and a trace span ("bench.*") around each call, so the
// library under test needs no benchmark hooks. The per-epoch EpochMetrics
// it fills are computed exactly as the runner computes them;
// tests/loop_faithfulness_test.cc holds the two side by side.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/epoch_controller.h"
#include "core/goldilocks.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace perfbench {

// How an epoch reaches the scheduler.
enum class DecisionPath {
  kPlace,       // Scheduler::Place, as ExperimentRunner::Run drives it
  kController,  // EpochController::Step: Place plus PlanMigrations
};

// Everything an epoch reads. Built once per set-up and read-only afterwards.
struct World {
  gl::Topology topo;
  std::unique_ptr<gl::Scenario> scenario;
  gl::RunnerOptions eval;  // power models, latency, migration cost, audit
  gl::GoldilocksOptions gold;
  DecisionPath path = DecisionPath::kPlace;
  // Epochs per pass. Every pass replays epochs [0, pass_epochs) with a fresh
  // scheduler, so each pass must reproduce the first one bit for bit.
  int pass_epochs = 1;
};

// The benchmark's workloads (README.md). Returns nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<World> MakeWorld(std::string_view workload);

// Wall milliseconds of each outside-timed layer call in one epoch.
struct LayerMs {
  double demands = 0.0;         // Scenario::DemandsAt + ActiveAt
  double decide = 0.0;          // Scheduler::Place or EpochController::Step
  double place = 0.0;           // Scheduler::Place (inside Step on kController)
  double audit = 0.0;           // InvariantAuditor::AuditAll
  double server_loads = 0.0;    // ServerLoads + server power
  double traffic = 0.0;         // EstimateTraffic
  double network = 0.0;         // ComputeNetworkPower
  double tct = 0.0;             // LatencyModel::ComputeTct
  double migration_cost = 0.0;  // ComputeMigrationCost
};

struct EpochOutcome {
  // Filled exactly as ExperimentRunner::Run fills it (wall_ms aside).
  gl::EpochMetrics metrics;
  int audit_errors = 0;
  int audit_warnings = 0;
  // Total positive flow weight of edges whose endpoints are placed on
  // different servers.
  double cut_weight = 0.0;
  std::uint64_t placement_hash = 0;  // HashAssignment of the placement
  // Timing: the whole epoch and each layer call, outside the bookkeeping
  // above (hashing and cut weight are benchmark work, not epoch work).
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU time over the same interval
  LayerMs layer;
};

class EpochLoop {
 public:
  explicit EpochLoop(const World& world);
  ~EpochLoop();
  EpochLoop(const EpochLoop&) = delete;
  EpochLoop& operator=(const EpochLoop&) = delete;

  // Starts a new pass: fresh scheduler (and controller), no previous
  // placement.
  void Restart();
  // Runs scenario epoch `epoch` on top of the previous call's placement.
  EpochOutcome RunEpoch(int epoch);

 private:
  const World& world_;
  const gl::LatencyModel latency_;
  const gl::InvariantAuditor auditor_;
  // Written by the timing wrapper around Scheduler::Place; declared before
  // the objects that hold the wrapper.
  double place_ms_ = 0.0;
  std::unique_ptr<gl::Scheduler> scheduler_;         // kPlace
  std::unique_ptr<gl::EpochController> controller_;  // kController
  gl::Placement previous_;
};

// Wall and CPU clocks of the benchmark, in nanoseconds.
[[nodiscard]] std::int64_t WallNanos();
[[nodiscard]] std::int64_t ProcessCpuNanos();

}  // namespace perfbench
