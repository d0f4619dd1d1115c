#include "workload/msr_trace.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "workload/calibration.h"

namespace gl {

MsrTrace GenerateMsrSearchTrace(const MsrTraceOptions& opts, Rng& rng) {
  GOLDILOCKS_CHECK_GT(opts.num_vertices, 10);
  MsrTrace trace;
  const int n = opts.num_vertices;
  const int num_background =
      static_cast<int>(std::lround(n * opts.background_fraction));
  const int num_aggregators =
      static_cast<int>(std::lround(n * opts.aggregator_fraction));
  const int num_search = n - num_background;

  trace.is_background.assign(static_cast<std::size_t>(n), 0);
  // Vertices [0, num_aggregators) are aggregators, [num_aggregators,
  // num_search) ISNs, the rest Hadoop background.
  for (int v = num_search; v < n; ++v) {
    trace.is_background[static_cast<std::size_t>(v)] = 1;
  }

  // --- degree sequence ------------------------------------------------------
  // Aggregators carry the fan-out; ISN degrees are moderate. The mix is
  // tuned so the mean lands on opts.mean_degree (Microsoft reports 45
  // distinct connections per VM on average [19]).
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  auto sample_degree = [&](double mean, double sigma) {
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::max(1, static_cast<int>(std::lround(
                           rng.LogNormal(mu, sigma))));
  };
  for (int v = 0; v < n; ++v) {
    if (trace.is_background[static_cast<std::size_t>(v)]) {
      degree[static_cast<std::size_t>(v)] = sample_degree(4.0, 0.5);
    } else if (v < num_aggregators) {
      degree[static_cast<std::size_t>(v)] = sample_degree(300.0, 0.6);
    } else {
      degree[static_cast<std::size_t>(v)] = sample_degree(24.0, 0.8);
    }
  }
  // Rescale to hit the target mean degree.
  const double current_mean =
      std::accumulate(degree.begin(), degree.end(), 0.0) / n;
  const double scale = opts.mean_degree / current_mean;
  for (auto& d : degree) {
    d = std::max(1, static_cast<int>(std::lround(d * scale)));
  }

  // --- configuration-model wiring -------------------------------------------
  std::vector<int> stubs;
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < degree[static_cast<std::size_t>(v)]; ++i) {
      stubs.push_back(v);
    }
  }
  for (std::size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.NextBelow(i)]);
  }

  // --- containers ------------------------------------------------------------
  trace.workload.containers.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    Container c;
    c.id = ContainerId{v};
    c.service = v;
    if (trace.is_background[static_cast<std::size_t>(v)]) {
      c.app = AppType::kHadoop;
      const double traffic = rng.Uniform(50.0, 400.0);
      c.demand = Resource{.cpu = HadoopCpuForTrafficMbps(traffic, rng),
                          .mem_gb = 2.0,
                          .net_mbps = traffic};
    } else {
      c.app = AppType::kSolr;
      // ISNs serve proportionally to their fan-in, near the 120-connection
      // cap for well-connected nodes (Fig 12a sweeps to exactly that).
      const double rps = std::clamp(
          2.5 * static_cast<double>(degree[static_cast<std::size_t>(v)]),
          60.0, opts.max_connections_per_isn);
      c.demand = Resource{
          .cpu = SolrCpuForRps(rps),
          .mem_gb = kSolrIndexMemoryGb,  // constant in-memory index (Fig 5b)
          .net_mbps = 0.016 * rps * 8.0};  // ~2KB per query at `rps`
    }
    trace.workload.containers.push_back(c);
  }

  // --- edges ------------------------------------------------------------------
  // Pair stubs and drop duplicate pairs here, so the workload's edge count
  // is the number of distinct communicating pairs. (The graph builder would
  // merge repeats too, but only after the edge list was already counted.)
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    int a = stubs[i], b = stubs[i + 1];
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    pairs.emplace_back(a, b);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  trace.workload.edges.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const bool bg = trace.is_background[static_cast<std::size_t>(a)] ||
                    trace.is_background[static_cast<std::size_t>(b)];
    double flows;
    if (bg) {
      flows = static_cast<double>(rng.UniformInt(1, 3));
      trace.background_flow_mb.push_back(rng.Uniform(
          opts.min_background_flow_mb, opts.max_background_flow_mb));
    } else {
      // Distinct query flows between a search pair: heavy-tailed, capped by
      // the per-ISN connection limit.
      flows = std::min(opts.max_connections_per_isn,
                       std::floor(rng.Pareto(1.0, 1.2)));
      trace.query_flow_kb.push_back(
          rng.Uniform(opts.min_query_flow_kb, opts.max_query_flow_kb));
    }
    trace.workload.edges.push_back(
        {ContainerId{a}, ContainerId{b}, flows, /*is_query=*/!bg});
  }
  return trace;
}

Workload ExpandTraceToContainers(const MsrTrace& trace, int per_vertex) {
  GOLDILOCKS_CHECK_GE(per_vertex, 1);
  Workload out;
  const int n = trace.workload.size();
  out.containers.reserve(static_cast<std::size_t>(n * per_vertex));
  // Hub container of vertex v is id v*per_vertex.
  for (int v = 0; v < n; ++v) {
    const Container& proto = trace.workload.containers[
        static_cast<std::size_t>(v)];
    for (int r = 0; r < per_vertex; ++r) {
      Container c = proto;
      c.id = ContainerId{v * per_vertex + r};
      c.service = v;
      out.containers.push_back(c);
    }
    // Star inside the service: replicas exchange state with the hub as
    // often as the vertex talks to the outside on average.
    const double intra_flows = 8.0;
    for (int r = 1; r < per_vertex; ++r) {
      out.edges.push_back({ContainerId{v * per_vertex},
                           ContainerId{v * per_vertex + r}, intra_flows});
    }
  }
  for (const auto& e : trace.workload.edges) {
    out.edges.push_back({ContainerId{e.a.value() * per_vertex},
                         ContainerId{e.b.value() * per_vertex}, e.flows,
                         e.is_query});
  }
  return out;
}

}  // namespace gl
