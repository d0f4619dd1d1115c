// Tests for the epoch controller (scheduler + migration planner loop) and
// the workload CSV round-trip.
#include <gtest/gtest.h>

#include <sstream>

#include "core/epoch_controller.h"
#include "core/goldilocks.h"
#include "core/scheduler_factory.h"
#include "sim/simulator.h"
#include "workload/scenarios.h"
#include "workload/workload_io.h"

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

// --- workload CSV round-trip ---------------------------------------------------

TEST(WorkloadIo, RoundTripPreservesEverything) {
  const auto scenario = MakeAzureMixScenario();
  const Workload& original = scenario->workload();

  std::stringstream containers, edges;
  WriteContainersCsv(original, containers);
  WriteEdgesCsv(original, edges);
  const auto loaded = ReadWorkloadCsv(containers, edges);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.workload.size(), original.size());
  ASSERT_EQ(loaded.workload.edges.size(), original.edges.size());
  for (int i = 0; i < original.size(); ++i) {
    const auto& a = original.containers[static_cast<std::size_t>(i)];
    const auto& b = loaded.workload.containers[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.app, b.app);
    EXPECT_DOUBLE_EQ(a.demand.cpu, b.demand.cpu);
    EXPECT_DOUBLE_EQ(a.demand.mem_gb, b.demand.mem_gb);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.replica_set, b.replica_set);
  }
  for (std::size_t i = 0; i < original.edges.size(); ++i) {
    EXPECT_EQ(original.edges[i].a, loaded.workload.edges[i].a);
    EXPECT_DOUBLE_EQ(original.edges[i].flows, loaded.workload.edges[i].flows);
    EXPECT_EQ(original.edges[i].is_query, loaded.workload.edges[i].is_query);
  }
}

TEST(WorkloadIo, ReplicaSetsSurviveRoundTrip) {
  Workload w;
  Container c;
  c.id = ContainerId{0};
  c.app = AppType::kCassandra;
  c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 2};
  c.replica_set = GroupId{42};
  w.containers.push_back(c);
  std::stringstream cs, es;
  WriteContainersCsv(w, cs);
  WriteEdgesCsv(w, es);
  const auto loaded = ReadWorkloadCsv(cs, es);
  ASSERT_TRUE(loaded.ok);
  EXPECT_EQ(loaded.workload.containers[0].replica_set, GroupId{42});
}

TEST(WorkloadIo, RejectsNonDenseIds) {
  std::stringstream cs("id,app,cpu,mem_gb,net_mbps,service,replica_set\n"
                       "5,Memcached,1,1,1,0,\n");
  std::stringstream es("a,b,flows,is_query\n");
  const auto loaded = ReadWorkloadCsv(cs, es);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("line 2"), std::string::npos);
}

TEST(WorkloadIo, RejectsDanglingEdges) {
  std::stringstream cs("id,app,cpu,mem_gb,net_mbps,service,replica_set\n"
                       "0,Memcached,1,1,1,0,\n");
  std::stringstream es("a,b,flows,is_query\n0,7,3,1\n");
  const auto loaded = ReadWorkloadCsv(cs, es);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("out of range"), std::string::npos);
}

TEST(WorkloadIo, RejectsNegativeDemand) {
  std::stringstream cs("id,app,cpu,mem_gb,net_mbps,service,replica_set\n"
                       "0,Memcached,-5,1,1,0,\n");
  std::stringstream es("a,b,flows,is_query\n");
  const auto loaded = ReadWorkloadCsv(cs, es);
  EXPECT_FALSE(loaded.ok);
}

TEST(WorkloadIo, UnknownAppMapsToGeneric) {
  std::stringstream cs("id,app,cpu,mem_gb,net_mbps,service,replica_set\n"
                       "0,SomethingNew,1,1,1,0,\n");
  std::stringstream es("a,b,flows,is_query\n");
  const auto loaded = ReadWorkloadCsv(cs, es);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.workload.containers[0].app, AppType::kCassandra);
}

TEST(WorkloadIo, FileRoundTrip) {
  const auto scenario = MakeTwitterCachingScenario();
  const std::string cpath = "/tmp/gl_containers_test.csv";
  const std::string epath = "/tmp/gl_edges_test.csv";
  ASSERT_TRUE(SaveWorkload(scenario->workload(), cpath, epath));
  const auto loaded = LoadWorkload(cpath, epath);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.workload.size(), scenario->workload().size());
}

}  // namespace
}  // namespace gl
