// Span-stream profiling: weighted call trees, collapsed stacks, critical path.
//
// The trace layer (obs/trace.h) records flat timed spans; this header turns
// a snapshot of those spans into attribution: which frames carry the time
// (self vs. total), what a flamegraph of the run looks like, and — the part
// flat tables cannot answer — how long the *critical path* through a
// parallel region is. The partitioner's fan-out runs worker subtrees
// concurrently (DESIGN.md §9), so wall time is not the sum of span times;
// the critical path is the longest chain of spans that could not have
// overlapped, and its serial steps are exactly the Amdahl wall that caps
// the t8 speedup: they answer "why is the t8 speedup what it is?".
//
// Reconstruction is structural, not intrusive: per-thread nesting comes from
// the (tid, depth) fields the span stack already records, and spans opened
// on pool worker lanes (depth 0 on their own thread) are adopted by the
// smallest span on another thread that fully contains them in time — which
// recovers `partition.worker` under `partition.parallel` without the trace
// layer knowing anything about fork points.
//
// Everything here is informational (DESIGN.md §10): profiles are derived
// from timings, never hashed, never compared for equality, and never feed a
// decision. Aggregation keys on span *names* only, so the shape of a
// profile (names and counts) is identical at every thread count even though
// the times differ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace gl::obs {

// One frame of the aggregated call tree. `total_us` is inclusive;
// `self_us` is the frame's own time with direct children subtracted,
// clamped at zero — parallel children can oversubscribe their parent's
// wall, in which case the parent has no attributable self time.
struct ProfileNode {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<ProfileNode> children;  // sorted by name
};

// Per-name totals over every span instance regardless of position in the
// tree. `total_us` double-counts recursive frames (a span nested under a
// same-named span contributes to both instances); `self_us` never does.
// `self_cpu_us` sums each instance's critical-path step cost: its thread
// CPU minus same-thread children's CPU, or, for a span recorded without CPU
// data, its wall minus the wall its children cover.
struct FlatProfileEntry {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double self_cpu_us = 0.0;
};

struct Profile {
  ProfileNode root;                    // synthetic "(root)" frame
  std::vector<FlatProfileEntry> flat;  // self-time descending, then name
};

// Aggregates a Trace::Events() snapshot (already sorted by tid, start,
// depth) into a name-keyed call tree plus flat per-name totals.
[[nodiscard]] Profile BuildProfile(const std::vector<TraceEvent>& events);

// Flamegraph/speedscope collapsed-stack export: one "a;b;c N" line per
// tree node with nonzero self time, N in integer microseconds, lines
// sorted lexicographically (canonical output for diffing two runs).
[[nodiscard]] std::string CollapsedStacks(const Profile& profile);

// One step of the critical path. `width` is how many spans ran as parallel
// alternatives at that point: the max overlap-cluster size over the chain
// of ancestors that led to the step (a step nested under a width-8 worker
// cluster keeps width >= 8 even when its own siblings are singletons — the
// other cluster members were live for its whole duration). Width 1 means
// the step was serial — nothing else could have absorbed its time.
struct CriticalPathStep {
  std::string name;
  std::int64_t arg = TraceEvent::kNoArg;
  double ms = 0.0;
  int width = 1;
};

struct CriticalPathResult {
  std::string root_name;  // empty when no root span was found
  double root_ms = 0.0;   // wall time of the chosen root span
  double path_ms = 0.0;   // critical-path length (sum of steps)
  double serial_ms = 0.0; // sum of width-1 steps: the Amdahl serial wall
  std::vector<CriticalPathStep> steps;  // in time order along the path
};

// Longest dependency chain through the span forest. Children of a span are
// grouped into clusters of time-overlapping intervals: clusters execute in
// sequence (each contributes the max critical path over its members, the
// chosen member's steps carrying the cluster size — or any larger inherited
// ancestor width — as `width`), and the parent's uncovered wall is its own
// serial contribution. `root_name`
// selects the root span by name (longest instance wins); when empty, the
// longest top-level span of the whole trace is used.
[[nodiscard]] CriticalPathResult ComputeCriticalPath(
    const std::vector<TraceEvent>& events, const std::string& root_name = "");

}  // namespace gl::obs
