// Serial-vs-parallel equivalence gate (DESIGN.md §9).
//
// The concurrency contract promises that the `threads` knobs never change
// results: the same seed must produce bit-identical EpochStateHash streams
// and final placements at threads=1, 2 and 8. These tests are the contract's
// executable form, and CI runs them under TSan so a data race in the
// parallel paths fails the build even when it happens not to corrupt the
// hashes.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/state_hash.h"
#include "graph/partitioner.h"
#include "sim/names.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

constexpr int kEpochs = 10;
const int kThreadCounts[] = {1, 2, 8};

std::vector<EpochStateHash> RunHashed(const std::string& scheduler_name,
                                      const Scenario& scenario,
                                      const Topology& topo,
                                      int partition_threads) {
  auto scheduler =
      MakeNamedScheduler(scheduler_name, 0.70, 0xfeed, partition_threads);
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(scenario, topo, opts);
  return runner.Run(*scheduler).state_hashes;
}

void ExpectIdenticalAcrossThreadCounts(const std::string& scheduler_name) {
  const auto scenario = MakeTwitterCachingScenario({.num_epochs = kEpochs});
  const auto topo = Topology::Testbed16();
  const auto serial = RunHashed(scheduler_name, *scenario, topo, 1);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kEpochs));
  for (const int threads : kThreadCounts) {
    const auto parallel = RunHashed(scheduler_name, *scenario, topo, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t e = 0; e < serial.size(); ++e) {
      const char* diverged = FirstDivergentSubsystem(serial[e], parallel[e]);
      EXPECT_EQ(diverged, nullptr)
          << "threads=" << threads << " diverged at epoch " << e << " in '"
          << (diverged ? diverged : "") << "'\n  serial:   "
          << serial[e].ToString() << "\n  parallel: "
          << parallel[e].ToString();
      if (diverged != nullptr) return;
    }
  }
}

// Goldilocks exercises the parallel partitioner every epoch.
TEST(ParallelDeterminism, GoldilocksHashStreamIsThreadCountInvariant) {
  ExpectIdenticalAcrossThreadCounts("goldilocks");
}

// A baseline without a partitioner still crosses RunMany and the estimator;
// its hashes must be untouched by the threading knobs too.
TEST(ParallelDeterminism, BorgHashStreamIsThreadCountInvariant) {
  ExpectIdenticalAcrossThreadCounts("borg");
}

// RunMany must equal per-scheduler Run() calls — same objects, same order —
// at every fan-out width.
TEST(ParallelDeterminism, RunManyMatchesSequentialRuns) {
  const auto scenario = MakeTwitterCachingScenario({.num_epochs = kEpochs});
  const auto topo = Topology::Testbed16();
  const std::vector<std::string> names = {"goldilocks", "borg"};

  std::vector<std::vector<EpochStateHash>> sequential;
  for (const auto& name : names) {
    sequential.push_back(RunHashed(name, *scenario, topo, 1));
  }

  for (const int threads : kThreadCounts) {
    RunnerOptions opts;
    opts.record_state_hashes = true;
    opts.threads = threads;
    const ExperimentRunner runner(*scenario, topo, opts);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Scheduler*> ptrs;
    for (const auto& name : names) {
      schedulers.push_back(MakeNamedScheduler(name, 0.70, 0xfeed, 1));
      ptrs.push_back(schedulers.back().get());
    }
    const auto results = runner.RunMany(ptrs);
    ASSERT_EQ(results.size(), names.size());
    for (std::size_t s = 0; s < results.size(); ++s) {
      ASSERT_EQ(results[s].state_hashes.size(), sequential[s].size());
      for (std::size_t e = 0; e < sequential[s].size(); ++e) {
        EXPECT_EQ(FirstDivergentSubsystem(sequential[s][e],
                                          results[s].state_hashes[e]),
                  nullptr)
            << names[s] << " threads=" << threads << " epoch " << e;
      }
    }
  }
}

// Services of 8 with heavy intra edges over vertices [lo, hi), plus
// `sparse` light edges between random vertices of the same range.
void AddServices(CsrGraphBuilder& builder, Rng& rng, int lo, int hi,
                 int sparse) {
  for (int s = lo; s + 8 <= hi; s += 8) {
    for (int i = 1; i < 8; ++i) {
      builder.AddEdge(s, s + i, rng.Uniform(100, 5000));
    }
  }
  const auto span = static_cast<std::uint64_t>(hi - lo);
  for (int e = 0; e < sparse; ++e) {
    const auto a = static_cast<VertexIndex>(lo + rng.NextBelow(span));
    const auto b = static_cast<VertexIndex>(lo + rng.NextBelow(span));
    if (a != b) builder.AddEdge(a, b, rng.Uniform(1, 50));
  }
}

// A pinned serial result: group count, a digest of group_of and
// group_path, and the cut's bits, as the preorder recursion numbers and
// sums them.
struct SerialPin {
  int num_groups;
  std::uint64_t digest;
  std::uint64_t cut_bits;
};

// Partitioner-level check: the serial result equals its pin, and every
// field of the result — group numbering, recursion paths and the float cut
// weight — is exactly equal, not merely hash-equal, at every thread count.
// Widths 2, 3 and 8 stop the frontier at 8, 12 and 32 ranges, so different
// splits run in the expansion rounds and in the frontier tasks, and their
// records arrive in different orders.
void ExpectRecursivePartitionThreadCountInvariant(const CsrGraph& g,
                                                  const FitPredicate& fits,
                                                  const SerialPin& pin) {
  const auto serial = RecursivePartition(g, fits, PartitionOptions{});
  StateHasher h;
  for (const int gi : serial.group_of) h.MixI32(gi);
  for (const auto& path : serial.group_path) {
    for (const char c : path) h.MixI32(c);
  }
  EXPECT_EQ(serial.num_groups, pin.num_groups);
  EXPECT_EQ(h.digest(), pin.digest);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.cut_weight), pin.cut_bits)
      << serial.cut_weight;
  for (const int threads : {1, 2, 3, 8}) {
    PartitionOptions popts;
    popts.threads = threads;
    const auto parallel = RecursivePartition(g, fits, popts);
    EXPECT_EQ(parallel.group_of, serial.group_of) << "threads=" << threads;
    EXPECT_EQ(parallel.num_groups, serial.num_groups);
    EXPECT_EQ(parallel.group_path, serial.group_path);
    // Bit-equality, not tolerance: the parallel fold replays the serial
    // summation order.
    EXPECT_EQ(parallel.cut_weight, serial.cut_weight) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, RecursivePartitionIsExactlyThreadCountInvariant) {
  // Clustered graph shaped like a container graph: services of ~8 with
  // heavy intra edges, sparse light inter-service edges.
  Rng rng(7);
  CsrGraphBuilder builder;
  constexpr int kVertices = 800;
  for (int i = 0; i < kVertices; ++i) {
    builder.AddVertex(Resource{.cpu = rng.Uniform(20, 60), .mem_gb = 4,
                               .net_mbps = rng.Uniform(5, 50)},
                      1.0);
  }
  AddServices(builder, rng, 0, kVertices, kVertices / 2);
  const Resource ceiling{.cpu = 2240, .mem_gb = 57, .net_mbps = 700};
  ExpectRecursivePartitionThreadCountInvariant(
      builder.Build(),
      [&](const Resource& demand) { return demand.FitsIn(ceiling); },
      {71, 0x95b10e61258ff793, 0x40f345cbc2481b97});
}

TEST(ParallelDeterminism, LopsidedRecursionIsExactlyThreadCountInvariant) {
  // Two halves of equal balance weight, joined by a few light edges: a
  // dense half whose CPU needs dozens of groups and a light half that fits
  // after one more split. The dense half's subtree splits in the expansion
  // rounds and in the frontier tasks while the light half's leaves wait in
  // the frontier, so round splits, task splits and leaves interleave by
  // position.
  Rng rng(11);
  CsrGraphBuilder builder;
  constexpr int kHalf = 400;
  for (int i = 0; i < 2 * kHalf; ++i) {
    const double cpu = i < kHalf ? rng.Uniform(40, 60) : rng.Uniform(0.5, 1.5);
    builder.AddVertex(Resource{.cpu = cpu, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  AddServices(builder, rng, 0, kHalf, kHalf / 2);
  AddServices(builder, rng, kHalf, 2 * kHalf, kHalf / 2);
  for (int e = 0; e < 4; ++e) {
    builder.AddEdge(static_cast<VertexIndex>(rng.NextBelow(kHalf)),
                    static_cast<VertexIndex>(kHalf + rng.NextBelow(kHalf)),
                    1.0);
  }
  const CsrGraph g = builder.Build();
  const auto fits = [](const Resource& demand) { return demand.cpu <= 300; };

  const auto serial = RecursivePartition(g, fits, PartitionOptions{});
  std::size_t shallowest = serial.group_path.front().size();
  std::size_t deepest = 0;
  for (const auto& path : serial.group_path) {
    shallowest = std::min(shallowest, path.size());
    deepest = std::max(deepest, path.size());
  }
  EXPECT_LE(shallowest, 2u);
  EXPECT_GE(deepest, 6u);
  ExpectRecursivePartitionThreadCountInvariant(
      g, fits, {104, 0x6fea8a88c2a49eb3, 0x4111707cc4491238});
}

// Intra-bisection check above the multi-trial gate (parallel_min_vertices):
// one Bisect call large enough that the parallel coarsening chunks, the
// pooled FM trials and the projection recomputation all engage. The side
// vector and the float cut must be bit-identical at every width — and under
// TSan this is the test that drives the chunked matching/contraction and
// concurrent FM trials hard enough to surface a data race.
TEST(ParallelDeterminism, LargeBisectionIsExactlyThreadCountInvariant) {
  Rng rng(21);
  CsrGraphBuilder builder;
  constexpr int kVertices = 6000;  // > PartitionOptions::parallel_min_vertices
  for (int i = 0; i < kVertices; ++i) {
    builder.AddVertex(Resource{.cpu = rng.Uniform(20, 60), .mem_gb = 4,
                               .net_mbps = rng.Uniform(5, 50)},
                      1.0);
  }
  for (int s = 0; s + 8 <= kVertices; s += 8) {
    for (int i = 1; i < 8; ++i) {
      builder.AddEdge(s, s + i, rng.Uniform(100, 5000));
    }
  }
  for (int e = 0; e < kVertices / 2; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(kVertices));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(kVertices));
    if (a != b) builder.AddEdge(a, b, rng.Uniform(1, 50));
  }
  const CsrGraph g = builder.Build();

  PartitionOptions serial_opts;
  ASSERT_LT(serial_opts.parallel_min_vertices, kVertices);
  ASSERT_GE(serial_opts.fm_trials, 2);
  const Bisection serial = Bisect(g, serial_opts);
  EXPECT_GT(serial.cut_weight, 0.0);
  for (const int threads : kThreadCounts) {
    PartitionOptions popts;
    popts.threads = threads;
    const Bisection parallel = Bisect(g, popts);
    EXPECT_EQ(parallel.side, serial.side) << "threads=" << threads;
    EXPECT_EQ(parallel.cut_weight, serial.cut_weight)
        << "threads=" << threads;
    EXPECT_EQ(parallel.side_weight[0], serial.side_weight[0]);
    EXPECT_EQ(parallel.side_weight[1], serial.side_weight[1]);
  }
}

}  // namespace
}  // namespace gl
