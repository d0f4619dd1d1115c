#include "analysis/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/stable_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {

namespace {

// Capacity comparisons use the shared kResourceEps tolerance via
// gl::WithinCap (common/resource.h) — the auditor must accept exactly what
// Resource::FitsIn accepts, or the checker and the checked code drift apart.

[[nodiscard]] bool FiniteNonNegative(double v GL_UNITS(any)) {
  return std::isfinite(v) && v >= 0.0;
}

[[nodiscard]] bool FiniteNonNegative(const Resource& r) {
  return FiniteNonNegative(r.cpu) && FiniteNonNegative(r.mem_gb) &&
         FiniteNonNegative(r.net_mbps);
}

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

// Appends a finding unless the class is already at its report cap.
class Collector {
 public:
  Collector(AuditReport& out, int cap) : out_(out), cap_(cap) {}

  void Add(AuditSeverity severity, AuditClass invariant,
           const char* subsystem, std::string message,
           std::vector<std::int32_t> ids = {}) {
    if (Count(invariant) >= cap_) return;
    out_.findings.push_back(AuditFinding{severity, invariant, subsystem,
                                         std::move(message), std::move(ids)});
  }

 private:
  [[nodiscard]] int Count(AuditClass c) const {
    int n = 0;
    for (const auto& f : out_.findings) n += f.invariant == c;
    return n;
  }

  AuditReport& out_;
  int cap_;
};

}  // namespace

const char* AuditSeverityName(AuditSeverity s) {
  return s == AuditSeverity::kError ? "error" : "warning";
}

const char* AuditClassName(AuditClass c) {
  switch (c) {
    case AuditClass::kConservation:
      return "conservation";
    case AuditClass::kCapacity:
      return "capacity";
    case AuditClass::kPeeCap:
      return "pee-cap";
    case AuditClass::kBandwidth:
      return "bandwidth";
    case AuditClass::kReplicaDomains:
      return "replica-domains";
    case AuditClass::kGraph:
      return "graph";
    case AuditClass::kTopology:
      return "topology";
    case AuditClass::kPowerModel:
      return "power-model";
  }
  return "unknown";
}

int AuditReport::errors() const {
  int n = 0;
  for (const auto& f : findings) n += f.severity == AuditSeverity::kError;
  return n;
}

int AuditReport::warnings() const {
  int n = 0;
  for (const auto& f : findings) n += f.severity == AuditSeverity::kWarning;
  return n;
}

int AuditReport::CountFor(AuditClass c) const {
  int n = 0;
  for (const auto& f : findings) n += f.invariant == c;
  return n;
}

std::string AuditReport::ToString() const {
  if (findings.empty()) return "audit clean: no findings\n";
  std::string out;
  for (const auto& f : findings) {
    out += AuditSeverityName(f.severity);
    out += " [";
    out += AuditClassName(f.invariant);
    out += '/';
    out += f.subsystem;
    out += "] ";
    out += f.message;
    if (!f.offending_ids.empty()) {
      out += " (ids:";
      for (const auto id : f.offending_ids) {
        out += ' ';
        out += std::to_string(id);
      }
      out += ')';
    }
    out += '\n';
  }
  return out;
}

void AuditReport::Append(const AuditReport& other) {
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
}

InvariantAuditor::InvariantAuditor(AuditOptions opts) : opts_(opts) {}

AuditReport InvariantAuditor::AuditAll(const SystemView& view) const {
  obs::TraceSpan span("audit.all");
  AuditReport report;
  if (view.topology != nullptr) AuditTopology(*view.topology, report);
  if (view.placement != nullptr && view.topology != nullptr) {
    AuditBandwidth(*view.placement, *view.topology, report);
  }
  if (view.placement != nullptr && view.topology != nullptr &&
      !view.demands.empty()) {
    AuditPlacement(*view.placement, view.demands, view.active, *view.topology,
                   report);
  }
  if (view.placement != nullptr && view.topology != nullptr &&
      view.workload != nullptr) {
    AuditReplicaDomains(*view.placement, *view.workload, *view.topology,
                        report);
  }
  if (view.container_graph != nullptr) {
    AuditGraph(*view.container_graph, report);
  }
  if (view.server_power != nullptr) {
    AuditPowerModel(*view.server_power, report);
  }
  // One deterministic counter per invariant class; the class name is part
  // of the metric name so gl_report can break findings down by family.
  for (const auto& f : report.findings) {
    std::string name = "audit.findings.";
    name += AuditClassName(f.invariant);
    obs::MetricsRegistry::Global()
        .GetCounter(name, obs::MetricKind::kDeterministic)
        .Increment();
  }
  return report;
}

void InvariantAuditor::AuditTopology(const Topology& topo,
                                     AuditReport& out) const {
  Collector add(out, opts_.max_findings_per_class);
  const int n = topo.num_nodes();

  if (n == 0) return;
  if (!topo.root().valid()) {
    add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
            "non-empty topology has no root");
    return;
  }

  int servers_seen = 0;
  for (int i = 0; i < n; ++i) {
    const NodeId id{i};
    const auto& node = topo.node(id);
    if (node.id != id) {
      add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
              "node id does not match its index", {i});
    }
    if (id == topo.root()) {
      if (node.parent.valid()) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "root node has a parent", {i});
      }
    } else {
      if (!node.parent.valid() || node.parent.value() >= n) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "non-root node has no valid parent", {i});
        continue;
      }
      const auto& parent = topo.node(node.parent);
      if (parent.level <= node.level) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "child level is not below its parent's",
                {i, node.parent.value()});
      }
      if (std::find(parent.children.begin(), parent.children.end(), id) ==
          parent.children.end()) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "node is missing from its parent's child list",
                {i, node.parent.value()});
      }
    }
    for (const auto child : node.children) {
      if (!child.valid() || child.value() >= n) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "child list references a nonexistent node", {i});
      } else if (topo.node(child).parent != id) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "child does not point back at this parent",
                {i, child.value()});
      }
    }
    if (node.level < 0) {
      add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
              "negative hierarchy level", {i});
    }
    if ((node.level == 0) != node.server.valid()) {
      add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
              "server id validity does not match level-0 status", {i});
    }
    if (node.server.valid()) {
      ++servers_seen;
      if (node.server.value() >= topo.num_servers()) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "leaf references an out-of-range server id", {i});
      } else if (topo.server_node(node.server) != id) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "server_node mapping disagrees with the leaf",
                {i, node.server.value()});
      } else if (!FiniteNonNegative(topo.server_capacity(node.server))) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "server capacity " +
                    topo.server_capacity(node.server).ToString() +
                    " has a negative or non-finite dimension",
                {node.server.value()});
      }
      if (!node.children.empty()) {
        add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
                "server leaf has children", {i});
      }
    }
    if (!std::isfinite(node.uplink_capacity_mbps) ||
        node.uplink_capacity_mbps < 0.0) {
      add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
              "uplink capacity is negative or non-finite", {i});
    }
    if (node.physical_switches < 0 || node.physical_uplinks < 0) {
      add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
              "negative physical switch/link count", {i});
    }
  }

  if (servers_seen != topo.num_servers()) {
    add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
            Format("topology has %.0f level-0 leaves but %.0f servers",
                   servers_seen, topo.num_servers()));
  }

  // Reachability: every node must hang off the root (cycle-free by the
  // parent/level checks above; this catches disconnected islands).
  std::vector<std::uint8_t> reached(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> stack{topo.root()};
  reached[static_cast<std::size_t>(topo.root().value())] = 1;
  int count = 1;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (const auto child : topo.node(cur).children) {
      if (!child.valid() || child.value() >= n) continue;
      auto& r = reached[static_cast<std::size_t>(child.value())];
      if (r) continue;
      r = 1;
      ++count;
      stack.push_back(child);
    }
  }
  if (count != n) {
    std::vector<std::int32_t> orphans;
    for (int i = 0; i < n && static_cast<int>(orphans.size()) < 8; ++i) {
      if (!reached[static_cast<std::size_t>(i)]) orphans.push_back(i);
    }
    add.Add(AuditSeverity::kError, AuditClass::kTopology, "topology",
            "nodes unreachable from the root", std::move(orphans));
  }
}

void InvariantAuditor::AuditBandwidth(const Placement& placement,
                                      const Topology& topo,
                                      AuditReport& out) const {
  const auto& reserved_mbps = placement.uplink_reserved_mbps;
  if (reserved_mbps.empty()) return;  // no uplink was checked
  Collector add(out, opts_.max_findings_per_class);
  if (reserved_mbps.size() != static_cast<std::size_t>(topo.num_nodes())) {
    add.Add(AuditSeverity::kError, AuditClass::kBandwidth, "placement",
            Format("%.0f uplink reservations for %.0f topology nodes",
                   static_cast<double>(reserved_mbps.size()),
                   topo.num_nodes()));
    return;
  }
  for (int i = 0; i < topo.num_nodes(); ++i) {
    const double reserved = reserved_mbps[static_cast<std::size_t>(i)];
    const double capacity = topo.uplink_capacity(NodeId{i});
    if (!std::isfinite(reserved) || reserved < -kResourceEps) {
      add.Add(AuditSeverity::kError, AuditClass::kBandwidth, "placement",
              "uplink reservation is negative or non-finite", {i});
      continue;
    }
    // The root has no uplink; factories give it capacity 0 and nothing may
    // reserve on it.
    if (!WithinCap(reserved, capacity)) {
      add.Add(AuditSeverity::kError, AuditClass::kBandwidth, "placement",
              Format("uplink over-reserved: %.1f Mbps reserved on "
                     "%.1f Mbps of capacity",
                     reserved, capacity),
              {i});
    }
  }
}

void InvariantAuditor::AuditPlacement(const Placement& placement,
                                      std::span<const Resource> demands,
                                      std::span<const std::uint8_t> active,
                                      const Topology& topo,
                                      AuditReport& out) const {
  Collector add(out, opts_.max_findings_per_class);
  const int num_servers = topo.num_servers();

  if (placement.server_of.size() > demands.size()) {
    add.Add(AuditSeverity::kError, AuditClass::kConservation, "placement",
            Format("placement covers %.0f containers but only %.0f demand "
                   "vectors exist",
                   static_cast<double>(placement.server_of.size()),
                   static_cast<double>(demands.size())));
  }

  std::vector<Resource> loads(static_cast<std::size_t>(num_servers));
  const std::size_t n =
      std::min(placement.server_of.size(), demands.size());
  for (std::size_t i = 0; i < n; ++i) {
    const ServerId s = placement.server_of[i];
    const auto cid = static_cast<std::int32_t>(i);
    const bool is_active = i < active.size() && active[i] != 0;
    if (!s.valid()) {
      if (is_active && !demands[i].IsZero()) {
        add.Add(AuditSeverity::kWarning, AuditClass::kConservation,
                "placement", "active container is unplaced", {cid});
      }
      continue;
    }
    if (s.value() >= num_servers) {
      add.Add(AuditSeverity::kError, AuditClass::kConservation, "placement",
              "container placed on a nonexistent server",
              {cid, s.value()});
      continue;
    }
    if (!active.empty() && !is_active) {
      add.Add(AuditSeverity::kError, AuditClass::kConservation, "placement",
              "inactive container holds a placement", {cid, s.value()});
    }
    if (!FiniteNonNegative(demands[i])) {
      add.Add(AuditSeverity::kError, AuditClass::kConservation, "workload",
              "demand vector " + demands[i].ToString() +
                  " has a negative or non-finite dimension",
              {cid});
      continue;  // keep corrupt demand out of the capacity sums
    }
    loads[static_cast<std::size_t>(s.value())] += demands[i];
  }

  for (int s = 0; s < num_servers; ++s) {
    const auto& load = loads[static_cast<std::size_t>(s)];
    if (load.IsZero()) continue;
    const Resource& cap = topo.server_capacity(ServerId{s});
    if (!load.FitsIn(cap)) {
      add.Add(AuditSeverity::kError, AuditClass::kCapacity, "placement",
              "server load " + load.ToString() + " exceeds capacity " +
                  cap.ToString(),
              {s});
      continue;  // the PEE cap is implied-violated; one finding is enough
    }
    const Resource ceiling{cap.cpu * opts_.pee_utilization,
                           cap.mem_gb * opts_.memory_ceiling,
                           cap.net_mbps * opts_.pee_utilization};
    if (!load.FitsIn(ceiling)) {
      add.Add(opts_.pee_cap_is_error ? AuditSeverity::kError
                                     : AuditSeverity::kWarning,
              AuditClass::kPeeCap, "placement",
              "server load " + load.ToString() + " exceeds the PEE ceiling " +
                  ceiling.ToString(),
              {s});
    }
  }
}

void InvariantAuditor::AuditReplicaDomains(const Placement& placement,
                                           const Workload& workload,
                                           const Topology& topo,
                                           AuditReport& out) const {
  Collector add(out, opts_.max_findings_per_class);
  // replica_set → fault-domain node → members placed inside it.
  std::unordered_map<GroupId,
                     std::unordered_map<NodeId, std::vector<std::int32_t>>>
      domains;
  for (const auto& c : workload.containers) {
    if (!c.replica_set.valid()) continue;
    const ServerId s = placement.of(c.id);
    if (!s.valid() || s.value() >= topo.num_servers()) continue;
    NodeId domain = topo.server_node(s);
    if (opts_.replica_domain_level > 0) {
      const NodeId up = topo.AncestorAt(domain, opts_.replica_domain_level);
      // Domains above the root collapse to the root (always shared).
      domain = up.valid() ? up : topo.root();
    }
    domains[c.replica_set][domain].push_back(c.id.value());
  }
  // Sorted snapshots: findings must come out in (set, domain) order, not
  // hash-bucket order, or two identical runs produce differently-ordered
  // reports.
  for (const auto& [set_id, by_domain] : SortedItems(domains)) {
    for (const auto& [domain, members] : SortedItems(by_domain)) {
      if (members.size() < 2) continue;
      std::vector<std::int32_t> ids = members;
      std::sort(ids.begin(), ids.end());
      add.Add(opts_.replica_violation_is_error ? AuditSeverity::kError
                                               : AuditSeverity::kWarning,
              AuditClass::kReplicaDomains, "placement",
              Format("replica set %.0f has %.0f members in one "
                     "fault domain",
                     static_cast<double>(set_id.value()),
                     static_cast<double>(members.size())),
              std::move(ids));
    }
  }
}

void InvariantAuditor::AuditGraph(const CsrGraph& graph,
                                  AuditReport& out) const {
  Collector add(out, opts_.max_findings_per_class);
  const VertexIndex n = graph.num_vertices();
  for (VertexIndex v = 0; v < n; ++v) {
    if (!FiniteNonNegative(graph.demand(v))) {
      add.Add(AuditSeverity::kError, AuditClass::kGraph, "graph",
              "vertex demand " + graph.demand(v).ToString() +
                  " has a negative or non-finite dimension",
              {v});
    }
    if (!FiniteNonNegative(graph.balance_weight(v))) {
      add.Add(AuditSeverity::kError, AuditClass::kGraph, "graph",
              "vertex balance weight is negative or non-finite", {v});
    }
    const auto [to, ws] = graph.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const VertexIndex u = to[i];
      const double w = ws[i];
      if (u < 0 || u >= n) {
        add.Add(AuditSeverity::kError, AuditClass::kGraph, "graph",
                "edge references a nonexistent vertex", {v});
        continue;
      }
      if (u == v) {
        add.Add(AuditSeverity::kError, AuditClass::kGraph, "graph",
                "self-loop edge", {v});
        continue;
      }
      if (!std::isfinite(w)) {
        add.Add(AuditSeverity::kError, AuditClass::kGraph, "graph",
                "edge weight is non-finite", {v, u});
      }
      // Symmetry: the reverse arc must exist with the same weight. Only
      // checked for v < u so each pair is reported once.
      if (v < u) {
        bool matched = false;
        const auto [back_to, back_ws] = graph.arc_range(u);
        for (std::size_t j = 0; j < back_to.size(); ++j) {
          if (back_to[j] != v) continue;
          matched = std::isfinite(back_ws[j]) == std::isfinite(w) &&
                    (!std::isfinite(w) || ApproxEq(back_ws[j], w));
          break;
        }
        if (!matched) {
          add.Add(AuditSeverity::kError, AuditClass::kGraph, "graph",
                  "edge has no matching reverse edge of equal weight",
                  {v, u});
        }
      }
    }
  }
}

void InvariantAuditor::AuditPowerModel(const ServerPowerModel& model,
                                       AuditReport& out) const {
  AuditPowerCurve([&model](double u) { return model.Power(u); },
                  model.max_watts(), model.name(), out);
}

void InvariantAuditor::AuditPowerCurve(
    const std::function<double(double)>& power_at_utilization,
    double max_watts, const std::string& name, AuditReport& out) const {
  Collector add(out, opts_.max_findings_per_class);
  const int samples = std::max(2, opts_.power_model_samples);
  double prev = -1.0;
  for (int i = 0; i < samples; ++i) {
    const double u = static_cast<double>(i) / (samples - 1);
    const double p = power_at_utilization(u);
    if (!std::isfinite(p) || p < 0.0) {
      add.Add(AuditSeverity::kError, AuditClass::kPowerModel, "power",
              name + Format(": power at utilization %.3f is %.3f W "
                            "(negative or non-finite)",
                            u, p));
      return;
    }
    if (!WithinCap(p, max_watts)) {
      add.Add(AuditSeverity::kError, AuditClass::kPowerModel, "power",
              name + Format(": power %.1f W exceeds the model's max %.1f W",
                            p, max_watts));
      return;
    }
    if (p + kResourceEps < prev) {
      add.Add(AuditSeverity::kError, AuditClass::kPowerModel, "power",
              name + Format(": power is not monotone: drops to %.3f W "
                            "after %.3f W",
                            p, prev));
      return;
    }
    prev = p;
  }
}

}  // namespace gl
