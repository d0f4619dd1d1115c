// Fig. 13 of the paper: trace-driven simulation at scale — a 28-ary fat
// tree (5488 servers, 980 switches), 49392 containers derived from the
// Microsoft search trace, Dell PowerEdge R940 server power and HPE Altoline
// 6940 switch power, simulated over 88 hours.
//
// Expected shape (Fig 13a-d): E-PVM keeps all 5488 servers on and draws the
// most power; Borg/mPP pack hardest (fewest servers); RC-Informed holds a
// reservation-driven server count; Goldilocks needs more servers than the
// packers but draws the least power and has the shortest TCT.
//
// The full 88-epoch horizon runs in minutes; set GOLDILOCKS_FIG13_EPOCHS to
// adjust (default 22 epochs = 4-hour sampling of the same 88-hour span).
//
//   bench_fig13_large_scale [--threads=N] [--json out.json]
//
// --threads fans the five policies out concurrently and parallelizes
// Goldilocks' partitioner; results are bit-identical at every width
// (DESIGN.md §9). --json writes per-policy {name, threads, wall_ms,
// containers, servers} records (EXPERIMENTS.md, "Machine-readable output").
#include <cstdlib>

#include "bench_common.h"
#include "sim/names.h"

int main(int argc, char** argv) {
  using namespace gl;
  using namespace gl::bench;

  const char* json_path = JsonPathFromArgs(argc, argv);
  const int threads = ThreadsFromArgs(argc, argv);

  int epochs = -1;  // the msr world's default: 22 epochs of 240 minutes
  if (const char* env = std::getenv("GOLDILOCKS_FIG13_EPOCHS")) {
    epochs = std::max(2, std::atoi(env));
  }
  // The Fig 13 world comes from the name table (sim/names.h).
  World world = *MakeWorld("msr", "", epochs);
  const Topology& topo = world.topology;
  const Scenario& scenario = *world.scenario;
  epochs = scenario.num_epochs();
  std::printf("Topology: %d servers, %d switches (28-ary fat tree)\n",
              topo.num_servers(), topo.num_switches());
  std::printf("Workload: %d containers, %zu edges (%d-hour horizon)\n",
              scenario.workload().size(), scenario.workload().edges.size(),
              static_cast<int>(epochs * scenario.epoch_minutes() / 60.0));

  RunnerOptions& ropts = world.runner;
  ropts.threads = threads;

  // Goldilocks re-partitions every 4 simulated hours; the grouping is reused
  // in between (the paper's epoch-based scheduling with low migration cost).
  const auto runs = RunAllPolicies(scenario, topo, ropts, 4);

  PrintBanner("Fig 13(a-c): time series");
  PrintTimeSeries(runs, std::max(1, epochs / 8), "epoch");

  PrintBanner("Fig 13(d): averages (normalized to E-PVM)");
  const auto epvm = runs.front().result.Average();
  // util: dominant-share utilization of the active servers, run average.
  Table t({"policy", "active servers", "norm servers", "util", "power kW",
           "norm power", "TCT ms", "norm TCT"});
  for (const auto& r : runs) {
    const auto m = r.result.Average();
    t.AddRow({r.name, Table::Int(m.active_servers),
              Table::Num(static_cast<double>(m.active_servers) /
                             epvm.active_servers, 3),
              Table::Num(m.avg_active_utilization, 3),
              Table::Num(m.total_watts / 1000.0, 1),
              Table::Num(m.total_watts / epvm.total_watts, 3),
              Table::Num(m.mean_tct_ms, 2),
              Table::Num(m.mean_tct_ms / epvm.mean_tct_ms, 3)});
  }
  t.Print();

  const auto& gold = runs.back().result.Average();
  std::printf(
      "\nGoldilocks vs E-PVM: %.1f%% power saving, %.2fx TCT (paper: 27%% "
      "saving, 0.85x TCT)\n",
      (1.0 - gold.total_watts / epvm.total_watts) * 100.0,
      gold.mean_tct_ms / epvm.mean_tct_ms);

  if (json_path != nullptr) {
    std::vector<ScaleRecord> records;
    for (const auto& r : runs) {
      // A single timed run: wall_ms doubles as the median, repeats = 1.
      records.push_back({r.name, threads, r.result.wall_ms,
                         scenario.workload().size(),
                         r.result.Average().active_servers,
                         r.result.wall_ms, 1});
    }
    if (!WriteScaleJson(json_path, records)) return 1;
    std::printf("wrote %zu records to %s\n", records.size(), json_path);
  }
  return 0;
}
