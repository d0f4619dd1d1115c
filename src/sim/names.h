// The name table: every scenario, topology and scheduler name that
// gl_report's subcommands, bench_fig13_large_scale and the tests accept, and
// what each one builds. It is the only place a name becomes an object, so a
// new world or policy is one entry here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "schedulers/scheduler.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {

// A scenario with the topology it runs on and the runner's power and latency
// models for that world. The runner borrows `scenario` and `topology`, so
// the World must outlive every ExperimentRunner built from it.
struct World {
  std::unique_ptr<Scenario> scenario;
  std::string topology_name;
  Topology topology;
  RunnerOptions runner;
};

// The recognised scenario names:
//   twitter  Fig 9: Twitter caching on the Wikipedia pattern, 60 one-minute
//            epochs on testbed16 with the runner's default models.
//   azure    Fig 10: the Azure application mix, likewise.
//   msr      Fig 13: the Microsoft search trace (49,392 containers) over 88
//            hours, 22 epochs of 240 minutes, on a 28-ary fat tree of Dell
//            R940 servers and HPE Altoline 6940 switches, 2 ms per hop
//            (printed as fattree28-r940).
[[nodiscard]] const std::vector<std::string>& NamedScenarios();

// Builds the named world, or nullopt for an unknown scenario or topology
// name. A non-empty `topology` replaces the scenario's own: testbed16 (the
// paper's testbed), fattree<k> for even k from 2 to 64, or leafspine (8
// leaves of 4 servers, 2 spines); the last two have 3,200-mCPU, 64 GB,
// 1 Gbps servers on 1 Gbps links. `epochs` > 0 sets the epoch count:
// twitter and azure keep their epoch length, msr spreads the epochs over
// its 88-hour horizon.
[[nodiscard]] std::optional<World> MakeWorld(const std::string& scenario,
                                             const std::string& topology = "",
                                             int epochs = -1);

// The recognised scheduler names, in canonical (bench) order:
// goldilocks, mpp, borg, epvm, rc, random.
[[nodiscard]] const std::vector<std::string>& NamedSchedulers();

// Builds the named scheduler, or nullptr for an unknown name. `pee` is the
// PEE packing ceiling for policies that honour one; `seed` feeds the
// stochastic policies (Random). `partition_threads` fans out Goldilocks'
// recursive bipartitioning (1 = serial; results are bit-identical at every
// value — DESIGN.md §9); other policies ignore it.
[[nodiscard]] std::unique_ptr<Scheduler> MakeNamedScheduler(
    const std::string& name, double pee = 0.70, std::uint64_t seed = 0xfeed,
    int partition_threads = 1);

}  // namespace gl
