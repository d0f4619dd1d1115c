// Epoch replay: the management node's view of a day (Sec. V).
//
// Drives the EpochController — scheduler plus phased migration planner —
// over the Wikipedia diurnal pattern and prints, per epoch, what the
// controller decided and what the transition cost: how many containers
// moved, in how many phases, how long the reshuffle took, and how many
// gigabytes of CRIU checkpoints crossed the network.
#include <cstdio>

#include "common/table.h"
#include "core/epoch_controller.h"
#include "core/goldilocks.h"
#include "workload/scenarios.h"

int main() {
  using namespace gl;

  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 30;
  const auto scenario = MakeTwitterCachingScenario(sopts);

  GoldilocksOptions gopts;
  gopts.repartition_interval = 5;  // refresh the grouping every 5 minutes
  EpochController controller(std::make_unique<GoldilocksScheduler>(gopts),
                             topo);

  PrintBanner("Epoch-by-epoch transitions (Goldilocks, 5-min repartition)");
  Table t({"epoch", "RPS", "servers", "moves", "phases", "bounced",
           "reshuffle s", "checkpoint GB"});
  for (int e = 0; e < scenario->num_epochs(); ++e) {
    const auto demands = scenario->DemandsAt(e);
    const auto active = scenario->ActiveAt(e);
    const auto d = controller.Step(scenario->workload(), demands, active);
    if (e % 3 != 0) continue;  // print every third epoch
    t.AddRow({Table::Int(e), Table::Num(scenario->TotalRpsAt(e) / 1000, 0),
              Table::Int(d.placement.NumActiveServers()),
              Table::Int(d.containers_moved),
              Table::Int(d.plan.num_phases),
              Table::Int(d.plan.bounced_containers),
              Table::Num(d.plan.makespan_ms / 1000.0, 1),
              Table::Num(d.plan.total_image_gb, 1)});
  }
  t.Print();

  std::printf(
      "\nHalf-hour totals: %.1f s of reshuffling, %.1f GB of checkpoint "
      "traffic across %d epochs.\nEvery transition was realizable: the "
      "planner orders dependent moves into phases and bounces cycles "
      "through scratch capacity instead of deadlocking.\n",
      controller.total_migration_makespan_ms() / 1000.0,
      controller.total_image_gb(), controller.epochs_run());
  return 0;
}
