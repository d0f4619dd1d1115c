#include "sim/migration_planner.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {
namespace {

struct PendingMove {
  ContainerId container;
  ServerId from;
  ServerId to;
  bool bounce = false;
};

double StepDuration(const Resource& demand, const MigrationCostOptions& c)
    GL_UNITS(ms) {
  return c.freeze_ms + ImageTransferMs(demand.mem_gb, c) + c.restore_ms;
}

}  // namespace

MigrationPlan PlanMigrations(const Placement& before, const Placement& after,
                             const Workload& workload,
                             std::span<const Resource> demands,
                             const Topology& topo,
                             const MigrationPlannerOptions& opts) {
  obs::TraceSpan span("migration.plan");
  MigrationPlan plan;
  const std::size_t n =
      std::min({before.server_of.size(), after.server_of.size(),
                workload.containers.size()});

  // Current loads: containers at their `before` spot; pure stops free their
  // room immediately (they shut down before the reshuffle starts).
  std::vector<Resource> load(static_cast<std::size_t>(topo.num_servers()));
  std::vector<PendingMove> pending;
  for (std::size_t i = 0; i < n; ++i) {
    const ServerId src = before.server_of[i];
    const ServerId dst = after.server_of[i];
    if (!src.valid()) continue;  // new start, not a migration
    if (!dst.valid()) continue;  // stop: never occupies anything here
    load[static_cast<std::size_t>(src.value())] += demands[i];
    if (src != dst) {
      pending.push_back({ContainerId{static_cast<int>(i)}, src, dst, false});
    }
  }

  auto fits_on = [&](ServerId s, const Resource& d) {
    const Resource cap = topo.server_capacity(s) * opts.transition_ceiling;
    return (load[static_cast<std::size_t>(s.value())] + d).FitsIn(cap);
  };

  for (int phase = 0; phase < opts.max_phases && !pending.empty(); ++phase) {
    // Commit every move whose destination currently has room. Source room
    // frees only at the end of the phase (the container exists on both
    // sides during the transfer), so releases are batched.
    std::vector<PendingMove> next;
    std::vector<std::pair<ServerId, Resource>> releases;
    bool progressed = false;
    for (const auto& mv : pending) {
      const auto ci = static_cast<std::size_t>(mv.container.value());
      if (fits_on(mv.to, demands[ci])) {
        load[static_cast<std::size_t>(mv.to.value())] += demands[ci];
        releases.emplace_back(mv.from, demands[ci]);
        plan.steps.push_back({mv.container, mv.from, mv.to, phase, mv.bounce,
                              StepDuration(demands[ci], opts.cost)});
        plan.total_image_gb +=
            demands[ci].mem_gb * opts.cost.image_overhead;
        progressed = true;
      } else {
        next.push_back(mv);
      }
    }
    for (const auto& [s, d] : releases) {
      load[static_cast<std::size_t>(s.value())] -= d;
    }

    if (progressed) {
      plan.num_phases = phase + 1;
      pending = std::move(next);
      continue;
    }

    // Deadlock: every pending destination is full — a cycle (or a genuinely
    // oversubscribed transition). Bounce the smallest-memory pending
    // container through any server with scratch room to break it.
    std::sort(next.begin(), next.end(),
              [&](const PendingMove& a, const PendingMove& b) {
                return demands[static_cast<std::size_t>(a.container.value())]
                           .mem_gb <
                       demands[static_cast<std::size_t>(b.container.value())]
                           .mem_gb;
              });
    bool bounced = false;
    for (auto& mv : next) {
      const auto ci = static_cast<std::size_t>(mv.container.value());
      for (int s = 0; s < topo.num_servers() && !bounced; ++s) {
        const ServerId spare{s};
        if (spare == mv.from || spare == mv.to) continue;
        if (!fits_on(spare, demands[ci])) continue;
        // Hop 1 this phase: from → spare.
        load[static_cast<std::size_t>(spare.value())] += demands[ci];
        load[static_cast<std::size_t>(mv.from.value())] -= demands[ci];
        plan.steps.push_back({mv.container, mv.from, spare, phase, true,
                              StepDuration(demands[ci], opts.cost)});
        plan.total_image_gb +=
            demands[ci].mem_gb * opts.cost.image_overhead;
        ++plan.bounced_containers;
        mv.from = spare;
        mv.bounce = true;
        bounced = true;
      }
      if (bounced) break;
    }
    if (!bounced) {
      // Nothing can move at all: record the survivors as stuck.
      for (const auto& mv : next) plan.stuck.push_back(mv.container);
      pending.clear();
      break;
    }
    plan.num_phases = phase + 1;
    pending = std::move(next);
  }
  for (const auto& mv : pending) plan.stuck.push_back(mv.container);

  // Makespan: phases are sequential; within a phase a server (as source or
  // destination) handles one image transfer at a time.
  std::vector<double> busy(static_cast<std::size_t>(topo.num_servers()));
  for (int phase = 0; phase < plan.num_phases; ++phase) {
    std::fill(busy.begin(), busy.end(), 0.0);
    double phase_span = 0.0;
    for (const auto& step : plan.steps) {
      if (step.phase != phase) continue;
      const auto from = static_cast<std::size_t>(step.from.value());
      const auto to = static_cast<std::size_t>(step.to.value());
      const double start = std::max(busy[from], busy[to]);
      const double end = start + step.transfer_ms;
      busy[from] = end;
      busy[to] = end;
      phase_span = std::max(phase_span, end);
    }
    plan.makespan_ms += phase_span;
  }
  static obs::Counter& planned = obs::MetricsRegistry::Global().GetCounter(
      "migration.steps_planned", obs::MetricKind::kDeterministic);
  static obs::Counter& bounces = obs::MetricsRegistry::Global().GetCounter(
      "migration.bounces", obs::MetricKind::kDeterministic);
  static obs::Counter& stuck = obs::MetricsRegistry::Global().GetCounter(
      "migration.stuck", obs::MetricKind::kDeterministic);
  planned.Add(plan.steps.size());
  bounces.Add(static_cast<std::uint64_t>(plan.bounced_containers));
  stuck.Add(plan.stuck.size());
  return plan;
}

}  // namespace gl
