// Epoch benchmark program: runs one workload for a wall-time budget and
// prints one JSON document of raw measurements on stdout.
//
//   epoch_bench --workload NAME --seconds S [--trace 0|1] [--seed N]
//
// Sequence: a calibration spin (host speed), timed set-ups (topology +
// scenario + scheduler; at least three, and more while they add up to under
// a second), one warm-up epoch, whole passes over the workload's epochs
// until S seconds have gone, and last a usable-core probe. With
// --trace 1 the budget is split: the first half runs untraced (outside
// layer timers), the second half under obs::Trace, one trace per epoch,
// folded into per-span self times with obs::BuildProfile.
//
// Every pass replays the same epochs from a fresh scheduler, so its quality
// columns, placement digests and deterministic counter totals must equal the
// first pass's; "passes_match" reports that. run.py turns the raw numbers
// into the benchmark's metrics; see README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/state_hash.h"
#include "epoch_loop.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t seed = 1;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

// --- host noise -------------------------------------------------------------

// Fixed integer work: the same instruction stream on every run, so its time
// tracks only the host's speed.
std::uint64_t SpinWork(std::uint64_t seed, int iterations) {
  std::uint64_t x = seed | 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x;
  }
  return acc;
}

std::vector<double> CalibrationSpinMs(std::uint64_t seed) {
  constexpr int kRepeats = 5;
  constexpr int kIterations = 20'000'000;
  std::vector<double> ms;
  std::uint64_t sink = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = WallNanos();
    sink += SpinWork(seed + static_cast<std::uint64_t>(r), kIterations);
    ms.push_back(static_cast<double>(WallNanos() - t0) / 1e6);
  }
  // Keeps the spin observable so the compiler cannot drop it.
  if (sink == 42) std::fprintf(stderr, "spin sink %llu\n",
                               static_cast<unsigned long long>(sink));
  return ms;
}

// Spins one thread per hardware thread for a fixed wall window and divides
// the CPU time the process got by the window: the cores actually usable.
double UsableCores(int threads) {
  constexpr std::int64_t kWindowNs = 250'000'000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sink{0};
  const std::int64_t wall0 = WallNanos();
  const std::int64_t cpu0 = ProcessCpuNanos();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&stop, &sink, t] {
      std::uint64_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        acc += SpinWork(static_cast<std::uint64_t>(t) + 7, 10'000);
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  while (WallNanos() - wall0 < kWindowNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : pool) th.join();
  const double wall = static_cast<double>(WallNanos() - wall0);
  const double cpu = static_cast<double>(ProcessCpuNanos() - cpu0);
  return wall > 0.0 ? cpu / wall : 0.0;
}

// --- counters ---------------------------------------------------------------

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap Snapshot(gl::obs::MetricKind kind) {
  CounterMap out;
  for (const auto& c :
       gl::obs::MetricsRegistry::Global().SnapshotCounters(kind)) {
    out[c.name] = c.value;
  }
  return out;
}

CounterMap Delta(const CounterMap& before, const CounterMap& after) {
  CounterMap out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

// --- passes -----------------------------------------------------------------

// Quality columns of one pass: exact, so passes compare with ==.
struct PassQuality {
  double mean_power_kw = 0.0;
  double mean_tct_ms = 0.0;
  double p99_tct_ms = 0.0;
  double migrations_per_epoch = 0.0;  // over the pass's transitions
  double cut_weight = 0.0;
  double clean_epoch_share = 0.0;  // no unplaced container, no audit error
  double audit_errors_per_epoch = 0.0;
  double audit_warnings_per_epoch = 0.0;
  double unplaced_per_epoch = 0.0;
  int admission_failed_epochs = 0;  // epochs with an unplaced container
  std::uint64_t digest = 0;           // every epoch's placement and quality
  std::uint64_t final_placement = 0;  // HashAssignment of the last epoch

  bool operator==(const PassQuality&) const = default;
};

struct EpochRecord {
  EpochOutcome outcome;
  bool repartition = false;  // no partition-cache hit this epoch
  bool traced = false;
  double traced_epoch_ms = 0.0;             // bench.epoch span, traced only
  std::map<std::string, double> self_ms;    // per span name, traced only
  std::map<std::string, std::uint64_t> span_counts;
};

struct PassResult {
  PassQuality quality;
  CounterMap counters;  // deterministic counter totals over the pass
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}

  int Run();

 private:
  PassResult RunPass(bool traced);
  void RunFor(double seconds, bool traced);
  void Emit() const;

  const Args& args_;
  std::unique_ptr<World> world_;
  std::unique_ptr<EpochLoop> loop_;
  gl::obs::Counter* cache_hits_ = nullptr;

  std::vector<double> calib_ms_;
  double usable_cores_ = 0.0;
  int nproc_ = 1;
  std::vector<double> setup_s_;
  std::vector<double> setup_cpu_s_;
  std::vector<EpochRecord> epochs_;
  std::vector<PassResult> passes_;
  std::string mismatch_;
  double peak_rss_mb_ = 0.0;
  CounterMap info_counters_;
};

PassResult Bench::RunPass(bool traced) {
  loop_->Restart();
  const int n = world_->pass_epochs;
  PassResult pass;
  PassQuality& q = pass.quality;
  gl::StateHasher digest;
  int clean = 0;
  const CounterMap before = Snapshot(gl::obs::MetricKind::kDeterministic);
  for (int e = 0; e < n; ++e) {
    EpochRecord rec;
    rec.traced = traced;
    const std::uint64_t hits0 = cache_hits_->value();
    if (traced) {
      gl::obs::Trace trace;
      trace.Activate();
      rec.outcome = loop_->RunEpoch(e);
      trace.Deactivate();
      const gl::obs::Profile profile = gl::obs::BuildProfile(trace.Events());
      for (const auto& f : profile.flat) {
        rec.self_ms[f.name] = f.self_us / 1000.0;
        rec.span_counts[f.name] = f.count;
        if (f.name == "bench.epoch") rec.traced_epoch_ms = f.total_us / 1000.0;
      }
    } else {
      rec.outcome = loop_->RunEpoch(e);
    }
    rec.repartition = cache_hits_->value() == hits0;

    const EpochOutcome& o = rec.outcome;
    const gl::EpochMetrics& m = o.metrics;
    q.mean_power_kw += m.total_watts / 1000.0;
    q.mean_tct_ms += m.mean_tct_ms;
    q.p99_tct_ms += m.p99_tct_ms;
    q.migrations_per_epoch += m.migrations;
    q.cut_weight += o.cut_weight;
    q.audit_errors_per_epoch += o.audit_errors;
    q.audit_warnings_per_epoch += o.audit_warnings;
    q.unplaced_per_epoch += m.unplaced_containers;
    clean += m.unplaced_containers == 0 && o.audit_errors == 0;
    q.admission_failed_epochs += m.unplaced_containers > 0;
    digest.MixU64(o.placement_hash);
    digest.MixDouble(m.total_watts);
    digest.MixDouble(m.mean_tct_ms);
    digest.MixDouble(m.p99_tct_ms);
    digest.MixI32(m.migrations);
    digest.MixDouble(o.cut_weight);
    digest.MixI32(m.audit_findings);
    q.final_placement = o.placement_hash;
    epochs_.push_back(std::move(rec));
  }
  const double dn = n;
  q.mean_power_kw /= dn;
  q.mean_tct_ms /= dn;
  q.p99_tct_ms /= dn;
  q.migrations_per_epoch /= std::max(1, n - 1);
  q.cut_weight /= dn;
  q.clean_epoch_share = clean / dn;
  q.audit_errors_per_epoch /= dn;
  q.audit_warnings_per_epoch /= dn;
  q.unplaced_per_epoch /= dn;
  q.digest = digest.digest();
  pass.counters =
      Delta(before, Snapshot(gl::obs::MetricKind::kDeterministic));
  return pass;
}

// Runs whole passes until `seconds` of wall time have gone (at least one).
void Bench::RunFor(double seconds, bool traced) {
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t t0 = WallNanos();
  do {
    PassResult pass = RunPass(traced);
    if (!passes_.empty() && mismatch_.empty()) {
      if (!(pass.quality == passes_.front().quality)) {
        mismatch_ = "pass " + std::to_string(passes_.size()) +
                    ": quality columns or placement digest differ from pass 0";
      } else if (pass.counters != passes_.front().counters) {
        mismatch_ = "pass " + std::to_string(passes_.size()) +
                    ": deterministic counter totals differ from pass 0";
      }
    }
    passes_.push_back(std::move(pass));
    // Later passes redo the same work and only add benchmark bookkeeping,
    // so the first pass sets the footprint that is reported.
    if (passes_.size() == 1) {
      peak_rss_mb_ =
          static_cast<double>(gl::obs::PeakRssBytes()) / (1024.0 * 1024.0);
    }
  } while (WallNanos() - t0 < budget);
}

int Bench::Run() {
  nproc_ = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  calib_ms_ = CalibrationSpinMs(args_.seed);

  // Set-up is cheap next to an epoch, so it is repeated until its median
  // is steady.
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 200;
  constexpr double kSetupBudgetS = 1.0;
  double setup_total_s = 0.0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups ||
                                     setup_total_s < kSetupBudgetS);
       ++i) {
    // Release the previous set-up first, so peak RSS holds one world.
    loop_.reset();
    world_.reset();
    const std::int64_t w0 = WallNanos();
    const std::int64_t c0 = ProcessCpuNanos();
    world_ = MakeWorld(args_.workload);
    if (world_ == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args_.workload.c_str());
      return 2;
    }
    loop_ = std::make_unique<EpochLoop>(*world_);
    setup_s_.push_back(static_cast<double>(WallNanos() - w0) / 1e9);
    setup_total_s += setup_s_.back();
    setup_cpu_s_.push_back(static_cast<double>(ProcessCpuNanos() - c0) / 1e9);
  }
  cache_hits_ = &gl::obs::MetricsRegistry::Global().GetCounter(
      "goldilocks.partition_cache_hits", gl::obs::MetricKind::kDeterministic);

  // Warm-up: lazy allocations and first-touch page faults of the scratch
  // arenas land here, not in the first timed epoch.
  (void)loop_->RunEpoch(0);

  const double untraced_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  RunFor(untraced_s, /*traced=*/false);
  if (args_.trace) RunFor(args_.seconds / 2, /*traced=*/true);
  info_counters_ = Snapshot(gl::obs::MetricKind::kInformational);
  // Last: on a CPU-quota host the all-core spin can use up the quota and
  // throttle whatever runs right after it.
  usable_cores_ = UsableCores(nproc_);
  Emit();
  return 0;
}

void Bench::Emit() const {
  std::string out;
  gl::JsonWriter j(&out);
  const auto doubles = [&j](std::string_view key,
                            const std::vector<double>& v) {
    j.Key(key);
    j.BeginArray();
    for (const double x : v) j.Double(x);
    j.EndArray();
  };
  const auto column = [&](std::string_view key, auto get) {
    std::vector<double> v;
    v.reserve(epochs_.size());
    for (const auto& r : epochs_) v.push_back(get(r));
    doubles(key, v);
  };

  j.BeginObject();
  j.Key("workload");
  j.String(args_.workload);
  j.Key("seed");
  j.UInt(args_.seed);
  j.Key("pass_epochs");
  j.Int(world_->pass_epochs);
  j.Key("passes");
  j.Int(static_cast<std::int64_t>(passes_.size()));
  j.Key("nproc");
  j.Int(nproc_);
  j.Key("usable_cores");
  j.Double(usable_cores_);
  doubles("calib_spin_ms", calib_ms_);
  doubles("setup_s", setup_s_);
  doubles("setup_cpu_s", setup_cpu_s_);
  j.Key("peak_rss_mb");
  j.Double(peak_rss_mb_);
  j.Key("passes_match");
  j.Bool(mismatch_.empty());
  j.Key("mismatch");
  j.String(mismatch_);

  const PassQuality& q = passes_.front().quality;
  j.Key("quality");
  j.BeginObject();
  j.Key("mean_power_kw");
  j.Double(q.mean_power_kw);
  j.Key("mean_tct_ms");
  j.Double(q.mean_tct_ms);
  j.Key("p99_tct_ms");
  j.Double(q.p99_tct_ms);
  j.Key("migrations_per_epoch");
  j.Double(q.migrations_per_epoch);
  j.Key("cut_weight");
  j.Double(q.cut_weight);
  j.Key("clean_epoch_share");
  j.Double(q.clean_epoch_share);
  j.Key("audit_errors_per_epoch");
  j.Double(q.audit_errors_per_epoch);
  j.Key("audit_warnings_per_epoch");
  j.Double(q.audit_warnings_per_epoch);
  j.Key("unplaced_per_epoch");
  j.Double(q.unplaced_per_epoch);
  j.Key("admission_failed_epochs");
  j.Int(q.admission_failed_epochs);
  j.Key("digest");
  j.Hex64(q.digest);
  j.Key("final_placement");
  j.Hex64(q.final_placement);
  j.EndObject();

  // Deterministic counters, per epoch of a pass.
  j.Key("counters_per_epoch");
  j.BeginObject();
  for (const auto& [name, total] : passes_.front().counters) {
    j.Key(name);
    j.Double(static_cast<double>(total) / world_->pass_epochs);
  }
  j.EndObject();
  j.Key("info_counters");
  j.BeginObject();
  for (const auto& [name, total] : info_counters_) {
    j.Key(name);
    j.UInt(total);
  }
  j.EndObject();
  j.Key("info_gauges");
  j.BeginObject();
  for (const auto& g : gl::obs::MetricsRegistry::Global().SnapshotGauges(
           gl::obs::MetricKind::kInformational)) {
    j.Key(g.name);
    j.Double(g.value);
  }
  j.EndObject();

  // One column per field, one row per timed epoch.
  j.Key("epochs");
  j.BeginObject();
  column("index", [](const EpochRecord& r) {
    return static_cast<double>(r.outcome.metrics.epoch);
  });
  column("traced", [](const EpochRecord& r) { return r.traced ? 1.0 : 0.0; });
  column("repartition",
         [](const EpochRecord& r) { return r.repartition ? 1.0 : 0.0; });
  column("wall_ms", [](const EpochRecord& r) { return r.outcome.wall_ms; });
  column("cpu_ms", [](const EpochRecord& r) { return r.outcome.cpu_ms; });
  column("demands",
         [](const EpochRecord& r) { return r.outcome.layer.demands; });
  column("decide", [](const EpochRecord& r) { return r.outcome.layer.decide; });
  column("place", [](const EpochRecord& r) { return r.outcome.layer.place; });
  column("audit", [](const EpochRecord& r) { return r.outcome.layer.audit; });
  column("server_loads",
         [](const EpochRecord& r) { return r.outcome.layer.server_loads; });
  column("traffic",
         [](const EpochRecord& r) { return r.outcome.layer.traffic; });
  column("network",
         [](const EpochRecord& r) { return r.outcome.layer.network; });
  column("tct", [](const EpochRecord& r) { return r.outcome.layer.tct; });
  column("migration_cost",
         [](const EpochRecord& r) { return r.outcome.layer.migration_cost; });
  j.EndObject();

  // Traced epochs: span self times (ms) and span counts, one entry per
  // traced epoch, zero where a span did not occur.
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, std::vector<double>> counts;
  std::vector<double> traced_epoch_ms;
  std::size_t row = 0;
  for (const auto& r : epochs_) {
    if (!r.traced) continue;
    for (const auto& [name, ms] : r.self_ms) {
      auto& v = self[name];
      v.resize(row, 0.0);
      v.push_back(ms);
      auto& c = counts[name];
      c.resize(row, 0.0);
      c.push_back(static_cast<double>(r.span_counts.at(name)));
    }
    traced_epoch_ms.push_back(r.traced_epoch_ms);
    ++row;
  }
  j.Key("traced");
  j.BeginObject();
  doubles("epoch_ms", traced_epoch_ms);
  j.Key("self_ms");
  j.BeginObject();
  for (auto& [name, v] : self) {
    v.resize(row, 0.0);
    doubles(name, v);
  }
  j.EndObject();
  j.Key("span_counts");
  j.BeginObject();
  for (auto& [name, v] : counts) {
    v.resize(row, 0.0);
    doubles(name, v);
  }
  j.EndObject();
  j.EndObject();
  j.EndObject();
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: epoch_bench --workload NAME --seconds S "
                 "[--trace 0|1] [--seed N]\n");
    return 2;
  }
  perfbench::Bench bench(args);
  return bench.Run();
}
