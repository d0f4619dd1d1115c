// Partitioner scalability microbenchmarks (google-benchmark).
//
// The paper reports METIS partitioning a 1M-vertex graph in 285 s and
// argues that epoch lengths can therefore be short. These benchmarks track
// our multilevel partitioner's cost across graph sizes, plus the unit
// operations placement relies on (bisection, k-way, recursive-to-fit).
//
//   bench_partitioner_scale [--json out.json] [--trace=PATH]
//                           [google-benchmark flags]
//
// --json switches to the thread-scaling sweep: RecursivePartition over the
// workload-like graph at threads 1/2/4/8, one record per configuration with
// timing (wall_ms/median_wall_ms) plus parallel-efficiency telemetry
// (parallel_efficiency, critical_path_ms, peak_bytes — see EXPERIMENTS.md,
// "Machine-readable output"). Results are bit-identical across widths
// (DESIGN.md §9); only the timings vary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "graph/partitioner.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace gl {
namespace {

CsrGraph MakeWorkloadLikeGraph(int n, std::uint64_t seed) {
  // Clustered graph shaped like a container graph: services of ~8 with
  // heavy intra edges, sparse light inter-service edges.
  Rng rng(seed);
  CsrGraphBuilder g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(Resource{.cpu = rng.Uniform(20, 60), .mem_gb = 4,
                         .net_mbps = rng.Uniform(5, 50)},
                1.0);
  }
  for (int s = 0; s + 8 <= n; s += 8) {
    for (int i = 1; i < 8; ++i) {
      g.AddEdge(s, s + i, rng.Uniform(100, 5000));
    }
  }
  const int inter = n / 2;
  for (int e = 0; e < inter; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a != b) g.AddEdge(a, b, rng.Uniform(1, 50));
  }
  return g.Build();
}

void BM_Bisect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CsrGraph g = MakeWorkloadLikeGraph(n, 42);
  for (auto _ : state) {
    auto b = Bisect(g, {});
    benchmark::DoNotOptimize(b.cut_weight);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Bisect)->Arg(1000)->Arg(10000)->Arg(50000)->Complexity();

void BM_RecursivePartitionToServers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CsrGraph g = MakeWorkloadLikeGraph(n, 7);
  const Resource ceiling{.cpu = 2240, .mem_gb = 57, .net_mbps = 700};
  for (auto _ : state) {
    auto r = RecursivePartition(
        g, [&](const Resource& d) { return d.FitsIn(ceiling); }, {});
    benchmark::DoNotOptimize(r.num_groups);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RecursivePartitionToServers)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Complexity();

void BM_KWayPartition(benchmark::State& state) {
  const CsrGraph g = MakeWorkloadLikeGraph(5000, 3);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = KWayPartition(g, k, {});
    benchmark::DoNotOptimize(r.cut_weight);
  }
}
BENCHMARK(BM_KWayPartition)->Arg(2)->Arg(8)->Arg(32);

void BM_CoarseningOnly(benchmark::State& state) {
  // Proxy for per-epoch incremental cost: one bisection on an already
  // service-clustered graph at testbed scale.
  const CsrGraph g = MakeWorkloadLikeGraph(224, 11);
  for (auto _ : state) {
    auto b = Bisect(g, {});
    benchmark::DoNotOptimize(b.side.data());
  }
}
BENCHMARK(BM_CoarseningOnly);

// Last value of an informational gauge, or `fallback` when never set.
double InfoGauge(const char* name, double fallback) {
  for (const auto& gv : obs::MetricsRegistry::Global().SnapshotGauges(
           obs::MetricKind::kInformational)) {
    if (gv.name == name) return gv.value;
  }
  return fallback;
}

// The --json sweep: same partition at every thread count, `repeat` timed
// runs per configuration, median + min reported (the committed perf
// baseline in BENCH_partitioner.json compares medians; see
// tools/perf_check.py). n=50000 is the "largest configuration" the perf
// trajectory tracks; it runs at threads 1 and 8 only to bound sweep time.
//
// After the timed repeats, each configuration gets one extra *untimed*
// instrumented run under an active Trace: it yields the critical-path length
// (obs/profile.h), and the pool-efficiency / scratch-peak gauges the
// partitioner publishes. Keeping tracing out of the timed loop means the
// medians stay comparable with pre-telemetry baselines. --trace=PATH
// additionally writes the Chrome trace of the largest parallel
// configuration for `gl_report profile` / `gl_report flame`.
bool RunThreadScalingSweep(const char* json_path, int repeat,
                           const char* trace_path) {
  const Resource ceiling{.cpu = 2240, .mem_gb = 57, .net_mbps = 700};
  const auto fits = [&](const Resource& d) { return d.FitsIn(ceiling); };
  std::vector<bench::ScaleRecord> records;
  for (const int n : {2000, 10000, 50000}) {
    const CsrGraph g = MakeWorkloadLikeGraph(n, 7);
    const std::vector<int> widths =
        n >= 50000 ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
    for (const int threads : widths) {
      PartitionOptions opts;
      opts.threads = threads;
      std::vector<double> samples;
      samples.reserve(static_cast<std::size_t>(repeat));
      int servers = 0;
      double cut_weight = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        const obs::WallTimer timer;  // wall timing only — never a seed
        const auto r = RecursivePartition(g, fits, opts);
        samples.push_back(timer.ElapsedMs());
        servers = r.num_groups;
        cut_weight = r.cut_weight;
      }
      const double best_ms = *std::min_element(samples.begin(), samples.end());
      const double median_ms = bench::MedianOf(samples);
      bench::ScaleRecord rec{"recursive_partition/n=" + std::to_string(n),
                             threads, best_ms, n, servers, median_ms, repeat};
      rec.cut_weight = cut_weight;
      {
        obs::Trace trace;
        trace.Activate();
        const auto r = RecursivePartition(g, fits, opts);
        trace.Deactivate();
        benchmark::DoNotOptimize(r.num_groups);
        const auto cp = obs::ComputeCriticalPath(
            trace.Events(),
            threads > 1 ? "partition.parallel" : "partition.recursive");
        rec.critical_path_ms = cp.path_ms;
        rec.serial_share = cp.path_ms > 0.0 ? cp.serial_ms / cp.path_ms : 0.0;
        rec.parallel_efficiency =
            threads > 1
                ? InfoGauge("partition.pool.parallel_efficiency", 1.0)
                : 1.0;
        rec.peak_bytes = static_cast<std::uint64_t>(
            InfoGauge("partition.scratch_peak_bytes", 0.0));
        if (trace_path != nullptr && n >= 50000 && threads > 1) {
          if (!trace.WriteChromeJson(trace_path)) return false;
          std::printf("wrote Chrome trace (n=%d threads=%d) to %s\n", n,
                      threads, trace_path);
        }
      }
      records.push_back(rec);
      std::printf("%-28s threads=%d  median %8.2f ms  min %8.2f ms  %d groups"
                  "  cut %.0f  eff %.2f  cp %7.2f ms  serial %.2f"
                  "  peak %zu KiB\n",
                  rec.name.c_str(), threads, median_ms, best_ms, servers,
                  rec.cut_weight, rec.parallel_efficiency,
                  rec.critical_path_ms, rec.serial_share,
                  static_cast<std::size_t>(rec.peak_bytes / 1024));
    }
  }
  if (!bench::WriteScaleJson(json_path, records)) return false;
  std::printf("wrote %zu records to %s\n", records.size(), json_path);
  return true;
}

}  // namespace
}  // namespace gl

int main(int argc, char** argv) {
  if (const char* json_path = gl::bench::JsonPathFromArgs(argc, argv)) {
    const int repeat = gl::bench::RepeatFromArgs(argc, argv);
    const char* trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
    }
    return gl::RunThreadScalingSweep(json_path, repeat, trace_path) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
