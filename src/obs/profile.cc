#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace gl::obs {
namespace {

// Span instance forest over an events snapshot: same-thread nesting from the
// recorded (tid, depth) stack, cross-thread lane roots adopted by time
// containment (see the header comment).
struct SpanNode {
  int parent = -1;
  std::vector<int> kids;  // sorted by (start_us, tid)
};

double EndUs(const TraceEvent& ev) { return ev.start_us + ev.dur_us; }

std::vector<SpanNode> BuildForest(const std::vector<TraceEvent>& events) {
  const int n = static_cast<int>(events.size());
  std::vector<SpanNode> nodes(static_cast<std::size_t>(n));

  // Pass 1: exact per-thread nesting. Events arrive sorted by (tid,
  // start_us, depth), so within a lane the recorded depth is the open-span
  // stack height at the moment the span opened.
  std::vector<int> stack;
  for (int i = 0; i < n; ++i) {
    const TraceEvent& ev = events[static_cast<std::size_t>(i)];
    if (i > 0 && ev.tid != events[static_cast<std::size_t>(i - 1)].tid) {
      stack.clear();
    }
    while (static_cast<int>(stack.size()) > ev.depth) stack.pop_back();
    if (!stack.empty()) {
      nodes[static_cast<std::size_t>(i)].parent = stack.back();
      nodes[static_cast<std::size_t>(stack.back())].kids.push_back(i);
    }
    stack.push_back(i);
  }

  // Pass 2: adopt lane roots across threads. A parentless span becomes the
  // child of the smallest strictly-longer span on another thread that fully
  // contains it in time; spans contained by nothing stay forest roots.
  constexpr double kTolUs = 1e-6;
  for (int i = 0; i < n; ++i) {
    if (nodes[static_cast<std::size_t>(i)].parent >= 0) continue;
    const TraceEvent& ev = events[static_cast<std::size_t>(i)];
    int best = -1;
    for (int j = 0; j < n; ++j) {
      const TraceEvent& cand = events[static_cast<std::size_t>(j)];
      if (cand.tid == ev.tid) continue;
      if (cand.start_us > ev.start_us + kTolUs ||
          EndUs(cand) + kTolUs < EndUs(ev)) {
        continue;  // not a container
      }
      if (cand.dur_us <= ev.dur_us + kTolUs) continue;  // no cycles
      if (best < 0 ||
          cand.dur_us < events[static_cast<std::size_t>(best)].dur_us) {
        best = j;
      }
    }
    if (best >= 0) {
      nodes[static_cast<std::size_t>(i)].parent = best;
      nodes[static_cast<std::size_t>(best)].kids.push_back(i);
    }
  }

  for (auto& node : nodes) {
    std::sort(node.kids.begin(), node.kids.end(), [&](int a, int b) {
      const TraceEvent& ea = events[static_cast<std::size_t>(a)];
      const TraceEvent& eb = events[static_cast<std::size_t>(b)];
      if (ea.start_us != eb.start_us) return ea.start_us < eb.start_us;
      if (ea.tid != eb.tid) return ea.tid < eb.tid;
      return a < b;
    });
  }
  return nodes;
}

// Merges span instance `i` (and its subtree) into the aggregated node for
// its name under `parent`.
void MergeInto(const std::vector<TraceEvent>& events,
               const std::vector<SpanNode>& nodes, int i,
               ProfileNode& parent) {
  const TraceEvent& ev = events[static_cast<std::size_t>(i)];
  auto it = std::find_if(
      parent.children.begin(), parent.children.end(),
      [&](const ProfileNode& c) { return c.name == ev.name; });
  if (it == parent.children.end()) {
    parent.children.push_back(ProfileNode{ev.name, 0, 0.0, 0.0, {}});
    it = parent.children.end() - 1;
  }
  ProfileNode& agg = *it;
  agg.count += 1;
  agg.total_us += ev.dur_us;
  double kids_us = 0.0;
  for (const int k : nodes[static_cast<std::size_t>(i)].kids) {
    kids_us += events[static_cast<std::size_t>(k)].dur_us;
  }
  agg.self_us += std::max(0.0, ev.dur_us - kids_us);
  for (const int k : nodes[static_cast<std::size_t>(i)].kids) {
    MergeInto(events, nodes, k, agg);
  }
}

void SortChildrenByName(ProfileNode& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.name < b.name;
            });
  for (auto& c : node.children) SortChildrenByName(c);
}

void CollectStacks(const ProfileNode& node, std::string& prefix,
                   std::vector<std::string>& lines) {
  const std::size_t prefix_len = prefix.size();
  if (!prefix.empty()) prefix.push_back(';');
  prefix += node.name;
  const auto self = static_cast<long long>(std::llround(node.self_us));
  if (self > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %lld", self);
    lines.push_back(prefix + buf);
  }
  for (const auto& c : node.children) CollectStacks(c, prefix, lines);
  prefix.resize(prefix_len);
}

// Maximal runs of time-overlapping children: clusters execute in sequence,
// members within a cluster are parallel alternatives.
struct Cluster {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<int> members;
};

std::vector<Cluster> ClusterKids(const std::vector<TraceEvent>& events,
                                 const std::vector<int>& kids) {
  std::vector<Cluster> clusters;
  // A lane span joins the previous cluster when that cluster is entirely
  // same-name lanes: the trace declared the batch data-parallel, so its
  // members are alternatives even when a narrow machine serialized them
  // (wall overlap alone cannot see that). Time overlap still merges as
  // before for everything else.
  const auto lanes_like = [&](const Cluster& c, const TraceEvent& ev) {
    if (!ev.parallel_lane) return false;
    for (const int m : c.members) {
      const TraceEvent& other = events[static_cast<std::size_t>(m)];
      if (!other.parallel_lane || other.name != ev.name) return false;
    }
    return true;
  };
  for (const int k : kids) {  // kids are sorted by start_us
    const TraceEvent& ev = events[static_cast<std::size_t>(k)];
    if (!clusters.empty() && (ev.start_us < clusters.back().hi ||
                              lanes_like(clusters.back(), ev))) {
      clusters.back().hi = std::max(clusters.back().hi, EndUs(ev));
      clusters.back().members.push_back(k);
    } else {
      clusters.push_back({ev.start_us, EndUs(ev), {k}});
    }
  }
  return clusters;
}

// The cost a span contributes as a path step: its own work with direct
// children's work subtracted. Spans recorded with thread-CPU time charge
// CPU self (cpu_us minus same-thread children's cpu_us) — blocked time
// never counts, and on an oversubscribed machine timesliced-out periods
// don't inflate the path the way wall self-time would. Adopted children on
// other threads burned their own threads' CPU, so they are not subtracted.
// Spans without CPU data (older traces) fall back to wall time minus the
// wall covered by child clusters.
double StepCostUs(const std::vector<TraceEvent>& events,
                  const std::vector<SpanNode>& nodes, int i) {
  const TraceEvent& ev = events[static_cast<std::size_t>(i)];
  const auto& kids = nodes[static_cast<std::size_t>(i)].kids;
  if (ev.cpu_us >= 0.0) {
    double kids_cpu = 0.0;
    for (const int k : kids) {
      const TraceEvent& kid = events[static_cast<std::size_t>(k)];
      if (kid.tid == ev.tid && kid.cpu_us > 0.0) kids_cpu += kid.cpu_us;
    }
    return std::max(0.0, ev.cpu_us - kids_cpu);
  }
  const auto clusters = ClusterKids(events, kids);
  double covered = 0.0;
  for (const auto& cluster : clusters) covered += cluster.hi - cluster.lo;
  return std::max(0.0, ev.dur_us - covered);
}

// Critical-path length of span instance `i`, memoized in `cp_us`.
double CriticalUs(const std::vector<TraceEvent>& events,
                  const std::vector<SpanNode>& nodes, int i,
                  std::vector<double>& cp_us) {
  double& memo = cp_us[static_cast<std::size_t>(i)];
  if (memo >= 0.0) return memo;
  const auto clusters = ClusterKids(events, nodes[static_cast<std::size_t>(i)].kids);
  double total = 0.0;
  for (const auto& cluster : clusters) {
    double best = 0.0;
    for (const int m : cluster.members) {
      best = std::max(best, CriticalUs(events, nodes, m, cp_us));
    }
    total += best;
  }
  memo = StepCostUs(events, nodes, i) + total;
  return memo;
}

// Emits the path steps in time order: the node's own serial remainder
// first, then — per cluster — the member with the longest critical path.
// `width` is the *effective* width: the max cluster size over the chain of
// ancestors that led here. A step below a width-8 cluster is not a serial
// wall even when its own siblings are singletons — the other seven cluster
// members were running the whole time and could have absorbed its time —
// so the inherited width, not the local cluster size alone, decides what
// counts toward serial_ms.
void WalkPath(const std::vector<TraceEvent>& events,
              const std::vector<SpanNode>& nodes, int i, int width,
              std::vector<double>& cp_us, CriticalPathResult& out) {
  const TraceEvent& ev = events[static_cast<std::size_t>(i)];
  const auto clusters = ClusterKids(events, nodes[static_cast<std::size_t>(i)].kids);
  const double self_ms = StepCostUs(events, nodes, i) / 1000.0;
  out.steps.push_back({ev.name, ev.arg, self_ms, width});
  out.path_ms += self_ms;
  if (width == 1) out.serial_ms += self_ms;
  for (const auto& cluster : clusters) {
    int best = cluster.members.front();
    for (const int m : cluster.members) {
      if (CriticalUs(events, nodes, m, cp_us) >
          CriticalUs(events, nodes, best, cp_us)) {
        best = m;
      }
    }
    WalkPath(events, nodes, best,
             std::max(width, static_cast<int>(cluster.members.size())),
             cp_us, out);
  }
}

}  // namespace

Profile BuildProfile(const std::vector<TraceEvent>& events) {
  Profile profile;
  profile.root.name = "(root)";
  const auto nodes = BuildForest(events);
  for (int i = 0; i < static_cast<int>(events.size()); ++i) {
    if (nodes[static_cast<std::size_t>(i)].parent < 0) {
      MergeInto(events, nodes, i, profile.root);
    }
  }
  SortChildrenByName(profile.root);
  for (const auto& c : profile.root.children) profile.root.total_us += c.total_us;

  std::map<std::string, FlatProfileEntry> flat;
  for (int i = 0; i < static_cast<int>(events.size()); ++i) {
    const TraceEvent& ev = events[static_cast<std::size_t>(i)];
    auto& entry = flat[ev.name];
    entry.name = ev.name;
    entry.count += 1;
    entry.total_us += ev.dur_us;
    double kids_us = 0.0;
    for (const int k : nodes[static_cast<std::size_t>(i)].kids) {
      kids_us += events[static_cast<std::size_t>(k)].dur_us;
    }
    entry.self_us += std::max(0.0, ev.dur_us - kids_us);
    entry.self_cpu_us += StepCostUs(events, nodes, i);
  }
  profile.flat.reserve(flat.size());
  for (auto& [name, entry] : flat) profile.flat.push_back(std::move(entry));
  std::sort(profile.flat.begin(), profile.flat.end(),
            [](const FlatProfileEntry& a, const FlatProfileEntry& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
  return profile;
}

std::string CollapsedStacks(const Profile& profile) {
  std::vector<std::string> lines;
  std::string prefix;
  for (const auto& c : profile.root.children) CollectStacks(c, prefix, lines);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

CriticalPathResult ComputeCriticalPath(const std::vector<TraceEvent>& events,
                                       const std::string& root_name) {
  CriticalPathResult out;
  const auto nodes = BuildForest(events);
  int root = -1;
  for (int i = 0; i < static_cast<int>(events.size()); ++i) {
    const TraceEvent& ev = events[static_cast<std::size_t>(i)];
    const bool eligible = root_name.empty()
                              ? nodes[static_cast<std::size_t>(i)].parent < 0
                              : root_name == ev.name;
    if (!eligible) continue;
    if (root < 0 || ev.dur_us > events[static_cast<std::size_t>(root)].dur_us) {
      root = i;
    }
  }
  if (root < 0) return out;
  out.root_name = events[static_cast<std::size_t>(root)].name;
  out.root_ms = events[static_cast<std::size_t>(root)].dur_us / 1000.0;
  std::vector<double> cp_us(events.size(), -1.0);
  WalkPath(events, nodes, root, 1, cp_us, out);
  return out;
}

}  // namespace gl::obs
