// Typed metrics registry: Counter / Gauge handles.
//
// Two classes of metric, and the distinction is the whole point
// (DESIGN.md §10):
//
//   kDeterministic  — counts of *decisions*: cut edges evaluated, bisection
//                     rejections, PEE-cap rejections, servers gated,
//                     migrations planned/coalesced, auditor findings. Two
//                     same-seed runs must produce identical totals, so these
//                     may be diffed by the replay gate and asserted on by
//                     tests.
//   kInformational  — anything timing- or environment-dependent. May be
//                     printed and logged, must never be hashed or compared
//                     for equality.
//
// Handles are cheap atomics; the intended call-site pattern caches the
// handle in a function-local static so the name lookup happens once:
//
//   static obs::Counter& edges = obs::MetricsRegistry::Global().GetCounter(
//       "partition.cut_edges_evaluated", obs::MetricKind::kDeterministic);
//   edges.Add(batch);
//
// Hot loops should accumulate into a local and Add() once per call —
// counters are relaxed atomics, safe under ParallelFor, and addition is
// commutative so totals stay deterministic regardless of thread schedule.
// Per-epoch *deltas* attribute correctly only when epochs run serially
// (parallel RunMany interleaves experiments; totals remain exact).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gl::obs {

enum class MetricKind {
  kDeterministic,   // replay-stable decision counts
  kInformational,   // timings etc.; never hashed, never diffed
};

[[nodiscard]] const char* MetricKindName(MetricKind kind);

// Monotonic event count.
class Counter {
 public:
  Counter(std::string name, MetricKind kind)
      : name_(std::move(name)), kind_(kind) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MetricKind kind() const { return kind_; }

 private:
  const std::string name_;
  const MetricKind kind_;
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge(std::string name, MetricKind kind)
      : name_(std::move(name)), kind_(kind) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MetricKind kind() const { return kind_; }

 private:
  const std::string name_;
  const MetricKind kind_;
  std::atomic<double> value_{0.0};
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
};

// Process-wide registry (plus instantiable for tests). Metric creation is
// mutex-guarded and idempotent: the first GetX for a name fixes its kind;
// later calls must agree (checked). Handle pointers are stable for the
// registry's lifetime, so call sites may cache references.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, MetricKind kind);
  Gauge& GetGauge(std::string_view name, MetricKind kind);

  // Name-sorted snapshot of every counter of the given kind. The sort makes
  // the serialized stream canonical: two same-seed runs must produce
  // byte-identical deterministic-counter snapshots.
  [[nodiscard]] std::vector<CounterValue> SnapshotCounters(
      MetricKind kind) const;
  [[nodiscard]] std::vector<GaugeValue> SnapshotGauges(MetricKind kind) const;

  // Element-wise `now - before` over a prior snapshot (names absent from
  // `before` diff against zero), keeping only the names that moved. The
  // runner logs these as per-epoch deltas, so a record lists exactly the
  // counters its epoch moved, whatever registered earlier in the process.
  [[nodiscard]] static std::vector<CounterValue> DeltaCounters(
      const std::vector<CounterValue>& before,
      const std::vector<CounterValue>& now);

 private:
  mutable Mutex mu_;
  // std::map: stable addresses via unique_ptr, sorted iteration for free.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GL_GUARDED_BY(mu_);
};

}  // namespace gl::obs
