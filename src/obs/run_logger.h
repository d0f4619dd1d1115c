// Structured run logs: one JSONL record per epoch ("gl.epoch.v1").
//
// The RunLogger is the third observability pillar: a streaming sink that the
// ExperimentRunner feeds one EpochRecord per epoch when RunnerOptions::logger
// points at it. Each record is a single JSON line with four sections:
//
//   top-level   — schema, scheduler, scenario, epoch  (deterministic)
//   "metrics"   — power / TCT / placement numbers     (deterministic)
//   "counters"  — deltas of the deterministic counters the epoch moved
//   "hash"      — the §8 EpochStateHash subsystem digests (when recorded)
//   "timings"   — wall_ms and informational gauges     (informational ONLY)
//
// Everything outside "timings" must be byte-identical across two same-seed
// runs — that is what `gl_report diff` and the replay gate compare. The
// "timings" section is excluded from every comparison and never hashed.
//
// Per-epoch counter deltas attribute to the right epoch only when epochs run
// serially (RunnerOptions::threads == 1); under a parallel RunMany the
// registry is shared across concurrent experiments, so the runner skips the
// counters section and only totals remain meaningful (DESIGN.md §10).
//
// The logger is thread-safe: each WriteEpoch serializes and appends one
// whole line under a mutex, so concurrent runs interleave *lines*, never
// bytes within a line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace gl::obs {

// Flattened per-epoch record. Plain fields only — gl_obs sits below sim/ in
// the link order, so the runner copies from EpochMetrics/EpochStateHash
// rather than this header depending on them.
struct EpochRecord {
  static constexpr const char* kSchema = "gl.epoch.v1";

  std::string scheduler;
  std::string scenario;
  int epoch = 0;

  // Deterministic epoch metrics (a subset of sim EpochMetrics).
  int active_servers = 0;
  int active_switches = 0;
  double server_watts = 0.0;
  double network_watts = 0.0;
  double total_watts = 0.0;
  double avg_active_utilization = 0.0;  // dominant share, active servers
  double mean_tct_ms = 0.0;
  double p99_tct_ms = 0.0;
  double queue_tct_ms = 0.0;    // mean_tct_ms's queueing term
  double network_tct_ms = 0.0;  // mean_tct_ms's network round trip
  double energy_per_request_j = 0.0;
  int migrations = 0;
  int placed_containers = 0;
  int unplaced_containers = 0;
  int audit_findings = 0;

  // Deterministic-counter deltas for this epoch (empty when unavailable,
  // e.g. parallel RunMany).
  std::vector<CounterValue> counters;

  // §8 subsystem digests; present when the runner records state hashes.
  bool has_hash = false;
  std::uint64_t hash_placement = 0;
  std::uint64_t hash_loads = 0;
  std::uint64_t hash_power = 0;
  std::uint64_t hash_migration = 0;
  std::uint64_t hash_rng = 0;

  // ---- informational section ("timings") — never hashed, never diffed ----
  // Every informational field lives here and is serialized inside the
  // trailing "timings":{...} object (wall_ms included — `gl_report diff`
  // strips it like every other timing). Anything added later that
  // is timing- or environment-dependent must join this section, never the
  // deterministic prefix.
  double wall_ms = 0.0;
  // Informational gauges at epoch end (pool utilization, arena peaks, peak
  // RSS, ... — MetricsRegistry::SnapshotGauges(kInformational)).
  std::vector<GaugeValue> info_gauges;
};

class RunLogger {
 public:
  // Streams lines to a file (created/truncated). ok() reports open failure.
  explicit RunLogger(const std::string& path);
  // Streams lines into a caller-owned string (tests, gl_report round-trip).
  explicit RunLogger(std::string* sink);
  ~RunLogger();
  RunLogger(const RunLogger&) = delete;
  RunLogger& operator=(const RunLogger&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr || sink_ != nullptr; }

  // Serializes the record and appends it as one line. Thread-safe.
  void WriteEpoch(const EpochRecord& rec);

  [[nodiscard]] std::uint64_t lines_written() const;

  // Pure serialization (no trailing newline) — what WriteEpoch emits, kept
  // separate so tests can assert on exact bytes.
  [[nodiscard]] static std::string EpochLine(const EpochRecord& rec);

 private:
  std::FILE* file_ = nullptr;  // owned when non-null
  std::string* sink_ = nullptr;

  mutable Mutex mu_;
  std::uint64_t lines_ GL_GUARDED_BY(mu_) = 0;
};

}  // namespace gl::obs
