// Tests for the epoch controller (scheduler + migration planner loop).
#include <gtest/gtest.h>

#include "core/epoch_controller.h"
#include "core/goldilocks.h"
#include "sim/names.h"
#include "sim/simulator.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

// --- epoch controller --------------------------------------------------------

TEST(EpochController, FirstEpochIsAllStartsNoMigrations) {
  const Topology topo = Topology::Testbed16();
  const auto scenario = MakeTwitterCachingScenario();
  EpochController ctl(std::make_unique<GoldilocksScheduler>(), topo);
  const auto demands = scenario->DemandsAt(0);
  const auto active = scenario->ActiveAt(0);
  const auto d = ctl.Step(scenario->workload(), demands, active);
  EXPECT_EQ(d.epoch, 0);
  EXPECT_EQ(d.containers_placed, 176);
  EXPECT_EQ(d.containers_started, 176);
  EXPECT_TRUE(d.plan.steps.empty());
  EXPECT_DOUBLE_EQ(ctl.total_migration_makespan_ms(), 0.0);
}

TEST(EpochController, PlansTransitionsBetweenEpochs) {
  const Topology topo = Topology::Testbed16();
  const auto scenario = MakeTwitterCachingScenario();
  GoldilocksOptions opts;
  opts.repartition_interval = 1;  // force per-epoch re-planning
  EpochController ctl(std::make_unique<GoldilocksScheduler>(opts), topo);
  for (int e = 0; e < 4; ++e) {
    const auto demands = scenario->DemandsAt(e * 15);  // big jumps
    const auto active = scenario->ActiveAt(e * 15);
    const auto d = ctl.Step(scenario->workload(), demands, active);
    // Whatever moves the scheduler wants, the plan must realize them all.
    EXPECT_TRUE(d.plan.stuck.empty()) << "epoch " << e;
    if (e > 0 && !d.plan.steps.empty()) {
      EXPECT_GT(d.plan.makespan_ms, 0.0);
    }
  }
  EXPECT_EQ(ctl.epochs_run(), 4);
}

TEST(EpochController, TracksStartsAndStopsUnderChurn) {
  const Topology topo = Topology::Testbed16();
  const auto scenario = MakeAzureMixScenario();
  EpochController ctl(std::make_unique<GoldilocksScheduler>(), topo);
  int total_started = 0, total_stopped = 0;
  for (int e = 0; e < 12; ++e) {
    const auto demands = scenario->DemandsAt(e);
    const auto active = scenario->ActiveAt(e);
    const auto d = ctl.Step(scenario->workload(), demands, active);
    total_started += d.containers_started;
    total_stopped += d.containers_stopped;
  }
  // The Azure trace churns containers, so both counters move.
  EXPECT_GT(total_started, 0);
  EXPECT_GT(total_stopped, 0);
}

TEST(EpochController, AccumulatesTransitionCosts) {
  const Topology topo = Topology::Testbed16();
  const auto scenario = MakeTwitterCachingScenario();
  GoldilocksOptions opts;
  opts.repartition_interval = 1;
  EpochController ctl(std::make_unique<GoldilocksScheduler>(opts), topo);
  for (int e = 0; e < 3; ++e) {
    const auto demands = scenario->DemandsAt(e * 20);
    const auto active = scenario->ActiveAt(e * 20);
    ctl.Step(scenario->workload(), demands, active);
  }
  EXPECT_GE(ctl.total_image_gb(), 0.0);
}

TEST(EpochController, ContainersMovedMatchesRunnerMigrations) {
  // Borg on twitter leaves moves stuck at epochs 5-7, so the plan's step
  // count undercounts there; containers_moved must not.
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 12;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const ExperimentRunner runner(*scenario, topo);
  auto runner_scheduler = MakeNamedScheduler("borg");
  const ExperimentResult result = runner.Run(*runner_scheduler);
  EpochController ctl(MakeNamedScheduler("borg"), topo);
  int stuck = 0;
  for (int e = 0; e < scenario->num_epochs(); ++e) {
    const auto d = ctl.Step(scenario->workload(), scenario->DemandsAt(e),
                            scenario->ActiveAt(e));
    EXPECT_EQ(d.containers_moved,
              result.epochs[static_cast<std::size_t>(e)].migrations)
        << "epoch " << e;
    stuck += static_cast<int>(d.plan.stuck.size());
  }
  EXPECT_GT(stuck, 0);
}

}  // namespace
}  // namespace gl
