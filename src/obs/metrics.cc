#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace gl::obs {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kDeterministic:
      return "deterministic";
    case MetricKind::kInformational:
      return "informational";
  }
  return "unknown";
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;  // function-local: no namespace-scope state
  return registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, MetricKind kind) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name), kind))
             .first;
  }
  GOLDILOCKS_CHECK_MSG(it->second->kind() == kind,
                       "metric re-registered with a different kind");
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, MetricKind kind) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name), kind))
             .first;
  }
  GOLDILOCKS_CHECK_MSG(it->second->kind() == kind,
                       "metric re-registered with a different kind");
  return *it->second;
}

std::vector<CounterValue> MetricsRegistry::SnapshotCounters(
    MetricKind kind) const {
  MutexLock lock(mu_);
  std::vector<CounterValue> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    if (counter->kind() != kind) continue;
    out.push_back({name, counter->value()});
  }
  return out;  // std::map iteration order is already name-sorted
}

std::vector<GaugeValue> MetricsRegistry::SnapshotGauges(
    MetricKind kind) const {
  MutexLock lock(mu_);
  std::vector<GaugeValue> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    if (gauge->kind() != kind) continue;
    out.push_back({name, gauge->value()});
  }
  return out;
}

std::vector<CounterValue> MetricsRegistry::DeltaCounters(
    const std::vector<CounterValue>& before,
    const std::vector<CounterValue>& now) {
  std::vector<CounterValue> out;
  out.reserve(now.size());
  for (const auto& cv : now) {
    const auto it = std::lower_bound(
        before.begin(), before.end(), cv.name,
        [](const CounterValue& a, const std::string& n) { return a.name < n; });
    const std::uint64_t prev =
        (it != before.end() && it->name == cv.name) ? it->value : 0;
    if (cv.value != prev) out.push_back({cv.name, cv.value - prev});
  }
  return out;
}

}  // namespace gl::obs
