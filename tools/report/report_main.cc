// gl_report: the repository's command line. It runs the worlds of the name
// table (sim/names.h) and reads the logs and traces runs leave behind.
//
//   gl_report run     [world flags] [--seed=N] [--pee=F] [--estimated]
//                     [--jsonl=PATH] [--trace=PATH]
//   gl_report replay  [world flags] [--seed=N] [--threads=N] [--estimated]
//                     [--verbose] [--jsonl=PATH] [--trace=PATH]
//   gl_report audit   [world flags] [--pee=F] [--pee-strict] [--fail-fast]
//   gl_report tables  FILE.jsonl
//   gl_report profile TRACE.json [--root=NAME] [--top=N]
//   gl_report flame   TRACE.json [--out=PATH]
//   gl_report diff    A B [--threshold=FRACTION]
//
// The world flags, read by one parser for run, replay and audit:
// --scenario=twitter|azure|msr (default twitter; msr is the Fig 13 world),
// --topology=testbed16|fattree<k>|leafspine (default: the scenario's own),
// --schedulers=a,b,...|all over goldilocks, mpp, borg, epvm, rc, random,
// and --epochs=N (default: the scenario's own). A subcommand exits 2 on a
// flag it does not take.
//
// `run` executes the named policies (default: goldilocks,borg) over the
// world with observability enabled: it streams one JSONL record per epoch,
// collects a trace of every instrumented phase, prints per-policy averages
// plus the trace's per-span summary (the only source of phase times), and
// — with --trace= — writes a Chrome trace loadable at chrome://tracing.
// --estimated puts DemandEstimator predictions in the loop; --pee= sets the
// PEE ceiling of the policies that honour one.
//
// `replay` is the seed-replay reproducibility gate. It runs each named
// scheduler (default: all) twice with identically-seeded schedulers and
// diffs the per-epoch state-hash streams (common/state_hash.h).
// Bit-identical streams are the determinism contract's promise (DESIGN.md
// §8); a divergence is reported with the first offending epoch and
// subsystem (placement, loads, power, migration, rng). The first run is
// serial with observability off. The second runs Goldilocks' partitioner
// over --threads=N threads, so the gate also checks that parallel execution
// is bit-identical to serial (DESIGN.md §9), and carries --jsonl= and
// --trace=, so identical hashes also prove observability is
// simulation-neutral (DESIGN.md §10). --estimated covers the estimator's
// state; --verbose prints every epoch's hashes. Exit 0 = every replay
// bit-identical, 1 = a divergence, 2 = bad usage.
//
// `audit` runs each named scheduler (default: goldilocks) through an
// EpochController with the InvariantAuditor enabled and prints every
// finding, after a static audit of the topology and the five shipped power
// models. The PEE cap is a warning (overcommit policies violate it by
// design); --pee-strict makes it an error, and --fail-fast aborts on the
// first error. Exit 0 = no errors (warnings are tolerated), 1 = at least
// one error-severity finding, 2 = bad usage.
//
// `tables` re-derives the counter tables from an existing JSONL file, so a
// logged run can be summarized later without re-running it.
//
// `profile` re-reads a Chrome trace written by run or replay --trace= and
// prints the attribution the flat tables cannot: top self-time frames and
// the critical path through the parallel span forest, including how much of
// the root's wall is serial (width-1) — the Amdahl bound on the t8 speedup
// (DESIGN.md §15).
//
// `flame` emits the same trace as collapsed stacks ("a;b;c N", N in µs) for
// flamegraph.pl / speedscope.
//
// `diff` is the one comparison of two run artifacts, told apart by their
// content. Two gl.epoch.v1 streams must agree record by record outside the
// informational "timings" tails (same record count, every line tagged with
// the schema and carrying the tail; the first differing record is named),
// and per-scheduler sums over the union of both streams' metrics, counters
// and gauges say what moved: deterministic differences are flagged DIFF,
// informational drift beyond --threshold DRIFT. Exit 0 = identical, 1 = any
// deterministic difference. Two Chrome traces are compared per span on self
// CPU ms, sorted by absolute change with the span that moved most on the
// first line; timings are informational (DESIGN.md §10), so that exits 0.
// Mixed kinds, anything else and unreadable files exit 2. Bench --json
// files are compared by tools/perf_check.py.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "common/state_hash.h"
#include "common/table.h"
#include "core/epoch_controller.h"
#include "obs/profile.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "power/server_power.h"
#include "sim/names.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kTimingsMarker = ",\"timings\":";
constexpr const char* kSchemaPrefix = "{\"schema\":\"gl.epoch.v1\"";

bool ParseFlag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  out = arg + n;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) parts.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

bool ReadLines(const std::string& path, std::vector<std::string>& lines) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gl_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return true;
}

// --- mini extractors for the fixed "gl.epoch.v1" line layout ---------------
// The emitter is our own JsonWriter with a fixed key order, so targeted
// substring scans are exact — this is not a general JSON parser.

// Value of a `"key":"string"` pair, or "" when absent.
std::string ExtractString(const std::string& line, const char* key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + pat.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

// Value of a `"key":number` pair at/after `from`, or fallback when absent.
double ExtractNumber(const std::string& line, const char* key, double fallback,
                     std::size_t from = 0) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat, from);
  if (at == std::string::npos) return fallback;
  return std::strtod(line.c_str() + at + pat.size(), nullptr);
}

// All `"name":number` pairs of the flat object following `"section":{`.
std::vector<std::pair<std::string, double>> ExtractSection(
    const std::string& line, const char* section) {
  std::vector<std::pair<std::string, double>> pairs;
  std::string pat = "\"";
  pat += section;
  pat += "\":{";
  std::size_t at = line.find(pat);
  if (at == std::string::npos) return pairs;
  at += pat.size();
  while (at < line.size() && line[at] != '}') {
    if (line[at] == ',') {
      ++at;
      continue;
    }
    if (line[at] != '"') break;
    const std::size_t name_end = line.find('"', at + 1);
    if (name_end == std::string::npos || name_end + 1 >= line.size() ||
        line[name_end + 1] != ':') {
      break;
    }
    char* after = nullptr;
    const double v = std::strtod(line.c_str() + name_end + 2, &after);
    pairs.emplace_back(line.substr(at + 1, name_end - at - 1), v);
    at = static_cast<std::size_t>(after - line.c_str());
  }
  return pairs;
}

// --- tables ----------------------------------------------------------------

void PrintTables(const std::vector<std::string>& lines) {
  // Per-scheduler sums of the per-epoch counter deltas.
  std::map<std::string, std::map<std::string, double>> by_scheduler;
  for (const auto& line : lines) {
    if (line.rfind(kSchemaPrefix, 0) != 0) continue;
    auto& counters = by_scheduler[ExtractString(line, "scheduler")];
    for (const auto& [name, v] : ExtractSection(line, "counters")) {
      counters[name] += v;
    }
  }
  if (by_scheduler.empty()) {
    std::printf("no gl.epoch.v1 records found\n");
    return;
  }

  gl::PrintBanner("deterministic counter totals (sum of per-epoch deltas)");
  for (const auto& [scheduler, counters] : by_scheduler) {
    if (counters.empty()) {
      std::printf("%s: no counter moved (or a parallel run, which logs "
                  "none)\n",
                  scheduler.c_str());
      continue;
    }
    gl::Table t({"counter", "total"});
    for (const auto& [name, v] : counters) {
      t.AddRow({name, gl::Table::Int(static_cast<long long>(v))});
    }
    std::printf("%s\n", scheduler.c_str());
    t.Print();
  }
}

// --- profile / flame -------------------------------------------------------

// A Chrome trace re-read into TraceEvents. Owns the interned span names
// (TraceEvent carries const char*); the deque keeps their addresses stable.
struct ParsedTrace {
  std::deque<std::string> names;
  std::vector<gl::obs::TraceEvent> events;
};

// Re-parses a chrome://tracing JSON file written by Trace::WriteChromeJson
// (tolerating other writers' "X" complete events too). The export drops the
// per-thread nesting depth, so it is reconstructed per tid from interval
// containment: sorted by (start asc, dur desc), a span's depth is the number
// of still-open spans that contain it.
bool ParseChromeTrace(const std::string& path, ParsedTrace& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gl_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::map<std::string, const std::string*> interned;
  const std::string pat = "{\"name\":\"";
  std::size_t at = text.find(pat);
  while (at != std::string::npos) {
    const std::size_t next = text.find(pat, at + pat.size());
    const std::string chunk =
        text.substr(at, (next == std::string::npos ? text.size() : next) - at);
    at = next;
    if (chunk.find("\"ph\":\"X\"") == std::string::npos) continue;
    gl::obs::TraceEvent ev;
    const std::string name = ExtractString(chunk, "name");
    auto it = interned.find(name);
    if (it == interned.end()) {
      out.names.push_back(name);
      it = interned.emplace(name, &out.names.back()).first;
    }
    ev.name = it->second->c_str();
    ev.start_us = ExtractNumber(chunk, "ts", 0.0);
    ev.dur_us = ExtractNumber(chunk, "dur", 0.0);
    ev.cpu_us = ExtractNumber(chunk, "cpu", -1.0);
    ev.parallel_lane = ExtractNumber(chunk, "lane", 0.0) != 0.0;
    ev.tid = static_cast<int>(ExtractNumber(chunk, "tid", 0.0));
    ev.arg = static_cast<std::int64_t>(ExtractNumber(
        chunk, "arg", static_cast<double>(gl::obs::TraceEvent::kNoArg)));
    out.events.push_back(ev);
  }
  if (out.events.empty()) {
    std::fprintf(stderr, "gl_report: no complete (\"ph\":\"X\") events in %s\n",
                 path.c_str());
    return false;
  }
  // Depth reconstruction: per tid, (start asc, dur desc) visits containers
  // before their contents; the stack of still-open end times is the depth.
  std::sort(out.events.begin(), out.events.end(),
            [](const gl::obs::TraceEvent& a, const gl::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  constexpr double kTolUs = 1e-6;
  std::vector<double> open_ends;
  int tid = std::numeric_limits<int>::min();
  for (auto& ev : out.events) {
    if (ev.tid != tid) {
      tid = ev.tid;
      open_ends.clear();
    }
    while (!open_ends.empty() &&
           ev.start_us + ev.dur_us > open_ends.back() + kTolUs) {
      open_ends.pop_back();
    }
    ev.depth = static_cast<int>(open_ends.size());
    open_ends.push_back(ev.start_us + ev.dur_us);
  }
  return true;
}

int ProfileCmd(const std::string& path, const std::string& root_name,
               int top_n) {
  ParsedTrace trace;
  if (!ParseChromeTrace(path, trace)) return 1;
  const gl::obs::Profile prof = gl::obs::BuildProfile(trace.events);

  gl::PrintBanner("top self-time frames (informational)");
  gl::Table flat({"frame", "count", "self ms", "total ms", "self share"});
  double self_total_us = 0.0;
  for (const auto& e : prof.flat) self_total_us += e.self_us;
  int shown = 0;
  for (const auto& e : prof.flat) {
    if (shown++ >= top_n) break;
    flat.AddRow({e.name, gl::Table::Int(static_cast<long long>(e.count)),
                 gl::Table::Num(e.self_us / 1000.0, 3),
                 gl::Table::Num(e.total_us / 1000.0, 3),
                 gl::Table::Pct(self_total_us > 0 ? e.self_us / self_total_us
                                                  : 0.0)});
  }
  flat.Print();

  const gl::obs::CriticalPathResult cp =
      gl::obs::ComputeCriticalPath(trace.events, root_name);
  if (cp.root_name.empty()) {
    std::printf("no root span%s%s found for a critical path\n",
                root_name.empty() ? "" : " named ", root_name.c_str());
    return 0;
  }
  gl::PrintBanner("critical path (longest non-overlappable chain)");
  gl::Table steps({"step", "arg", "ms", "width"});
  for (const auto& s : cp.steps) {
    steps.AddRow({s.name,
                  s.arg == gl::obs::TraceEvent::kNoArg
                      ? std::string("-")
                      : gl::Table::Int(static_cast<long long>(s.arg)),
                  gl::Table::Num(s.ms, 3), gl::Table::Int(s.width)});
  }
  steps.Print();
  std::printf(
      "root %s: %.3f ms wall; critical path %.3f ms; serial (width-1) steps "
      "%.3f ms = %.1f%% of root wall\n",
      cp.root_name.c_str(), cp.root_ms, cp.path_ms, cp.serial_ms,
      cp.root_ms > 0 ? 100.0 * cp.serial_ms / cp.root_ms : 0.0);
  return 0;
}

int FlameCmd(const std::string& path, const std::string& out_path) {
  ParsedTrace trace;
  if (!ParseChromeTrace(path, trace)) return 1;
  const std::string collapsed =
      gl::obs::CollapsedStacks(gl::obs::BuildProfile(trace.events));
  if (out_path.empty()) {
    std::fwrite(collapsed.data(), 1, collapsed.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "gl_report: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  out << collapsed;
  std::printf("wrote %zu collapsed-stack bytes to %s\n", collapsed.size(),
              out_path.c_str());
  return 0;
}

// --- diff ------------------------------------------------------------------

// Relative drift of b against a, on a scale where 0.1 = 10%.
double Drift(double a, double b) {
  const double base = std::max(std::fabs(a), 1e-12);
  return std::fabs(b - a) / base;
}

struct DiffCounts {
  int determ_diffs = 0;
  int drift_flags = 0;
};

// One comparison row. Deterministic rows flag any difference at all; the
// informational ones flag only drift beyond the threshold.
void DiffRow(gl::Table& t, const std::string& name, double a, double b,
             bool deterministic, double threshold, DiffCounts& counts) {
  std::string flag;
  if (deterministic) {
    if (a != b) {
      flag = "DIFF";
      ++counts.determ_diffs;
    }
  } else if (Drift(a, b) > threshold) {
    flag = "DRIFT";
    ++counts.drift_flags;
  }
  t.AddRow({name, gl::Table::Num(a, 3), gl::Table::Num(b, 3),
            gl::Table::Num(b - a, 3), flag});
}

// One row per name in either map; a name one side lacks reads 0 there.
void DiffRows(gl::Table& t, const std::string& prefix,
              const std::map<std::string, double>& a,
              const std::map<std::string, double>& b, bool deterministic,
              double threshold, DiffCounts& counts) {
  std::map<std::string, std::pair<double, double>> rows;
  for (const auto& [name, v] : a) rows[name].first = v;
  for (const auto& [name, v] : b) rows[name].second = v;
  for (const auto& [name, ab] : rows) {
    DiffRow(t, prefix + name, ab.first, ab.second, deterministic, threshold,
            counts);
  }
}

// A record's deterministic prefix: everything before its "timings" tail.
// Empty when the line is not a gl.epoch.v1 record with that tail.
std::string DeterministicPrefix(const std::string& line) {
  const std::size_t at = line.find(kTimingsMarker);
  if (line.rfind(kSchemaPrefix, 0) != 0 || at == std::string::npos ||
      line.back() != '}') {
    return "";
  }
  return line.substr(0, at);
}

// The record-by-record contract of two same-seed streams: equal record
// counts, every line a gl.epoch.v1 record with a timings tail, and records
// byte-identical outside their tails. Prints the first violation, naming
// the record and the field where the bytes part, and returns false.
bool RecordsMatch(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  if (a.size() != b.size()) {
    std::printf("records: A has %zu, B has %zu\n", a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string pa = DeterministicPrefix(a[i]);
    const std::string pb = DeterministicPrefix(b[i]);
    if (pa.empty() || pb.empty()) {
      std::printf("record %zu of %s is not a gl.epoch.v1 line with a "
                  "timings tail\n",
                  i, pa.empty() ? "A" : "B");
      return false;
    }
    if (pa == pb) continue;
    // Both start with the schema tag, so they part at some at > 0.
    std::size_t at = 0;
    while (at < pa.size() && at < pb.size() && pa[at] == pb[at]) ++at;
    const std::size_t field = pa.find_last_of("{,", at - 1) + 1;
    std::printf("record %zu (%s epoch %d) differs outside timings:\n"
                "  A: ...%s\n  B: ...%s\n",
                i, ExtractString(pa, "scheduler").c_str(),
                static_cast<int>(ExtractNumber(pa, "epoch", -1.0)),
                pa.substr(field, 96).c_str(), pb.substr(field, 96).c_str());
    return false;
  }
  std::printf("records: %zu, byte-identical outside timings\n", a.size());
  return true;
}

// Per-scheduler aggregate of one gl.epoch.v1 stream.
struct SchedulerAgg {
  int epochs = 0;
  std::map<std::string, double> metrics;   // deterministic sums
  std::map<std::string, double> counters;  // deterministic sums
  std::map<std::string, double> info;      // per-epoch means of the timings
};

std::map<std::string, SchedulerAgg> AggregateJsonl(
    const std::vector<std::string>& lines) {
  std::map<std::string, SchedulerAgg> by_scheduler;
  for (const auto& line : lines) {
    if (line.rfind(kSchemaPrefix, 0) != 0) continue;
    auto& agg = by_scheduler[ExtractString(line, "scheduler")];
    ++agg.epochs;
    for (const auto& [name, v] : ExtractSection(line, "metrics")) {
      agg.metrics[name] += v;
    }
    for (const auto& [name, v] : ExtractSection(line, "counters")) {
      agg.counters[name] += v;
    }
    const std::size_t timings_at = line.find(kTimingsMarker);
    agg.info["wall_ms"] += ExtractNumber(
        line, "wall_ms", 0.0,
        timings_at == std::string::npos ? 0 : timings_at);
    for (const auto& [name, v] : ExtractSection(line, "gauges")) {
      agg.info[name] += v;
    }
  }
  for (auto& [scheduler, agg] : by_scheduler) {
    for (auto& [name, v] : agg.info) v /= agg.epochs;
  }
  return by_scheduler;
}

// Two streams: the record-by-record contract first, then per-scheduler sums
// over the union of both streams' schedulers, metrics, counters and gauges,
// which say what moved. Exit 1 on any deterministic difference.
int DiffJsonl(const std::vector<std::string>& a,
              const std::vector<std::string>& b, double threshold) {
  DiffCounts counts;
  if (!RecordsMatch(a, b)) ++counts.determ_diffs;
  auto aggs = AggregateJsonl(a);
  const auto aggs_b = AggregateJsonl(b);
  for (const auto& [scheduler, agg_b] : aggs_b) aggs.try_emplace(scheduler);
  for (const auto& [scheduler, agg_a] : aggs) {
    const auto it = aggs_b.find(scheduler);
    if (agg_a.epochs == 0 || it == aggs_b.end()) {
      std::printf("%s: only in %s\n", scheduler.c_str(),
                  agg_a.epochs == 0 ? "B" : "A");
      ++counts.determ_diffs;
      continue;
    }
    const SchedulerAgg& agg_b = it->second;
    std::printf("%s — %d vs %d epochs\n", scheduler.c_str(), agg_a.epochs,
                agg_b.epochs);
    gl::Table t({"metric", "A", "B", "delta", "flag"});
    DiffRow(t, "epochs", agg_a.epochs, agg_b.epochs, true, threshold, counts);
    DiffRows(t, "", agg_a.metrics, agg_b.metrics, true, threshold, counts);
    DiffRows(t, "counter ", agg_a.counters, agg_b.counters, true, threshold,
             counts);
    DiffRows(t, "info ", agg_a.info, agg_b.info, false, threshold, counts);
    t.Print();
  }
  std::printf("diff: %d deterministic difference(s), %d informational "
              "drift flag(s) beyond %.0f%%\n",
              counts.determ_diffs, counts.drift_flags, 100.0 * threshold);
  // Drift in the informational tail never fails the diff: shared CI runners
  // make wall time an unreliable signal (DESIGN.md §10).
  return counts.determ_diffs > 0 ? 1 : 0;
}

// Two traces: per-span self CPU (obs::FlatProfileEntry::self_cpu_us), rows
// sorted by absolute change, the span that moved most named on the first
// line. Timings are informational, so this always exits 0.
int DiffTraces(const ParsedTrace& a, const ParsedTrace& b) {
  struct Row {
    std::string name;
    std::uint64_t count_a = 0, count_b = 0;
    double ms_a = 0.0, ms_b = 0.0;
  };
  std::map<std::string, Row> by_name;
  for (const auto& e : gl::obs::BuildProfile(a.events).flat) {
    by_name[e.name].count_a = e.count;
    by_name[e.name].ms_a = e.self_cpu_us / 1000.0;
  }
  for (const auto& e : gl::obs::BuildProfile(b.events).flat) {
    by_name[e.name].count_b = e.count;
    by_name[e.name].ms_b = e.self_cpu_us / 1000.0;
  }
  std::vector<Row> rows;
  for (auto& [name, row] : by_name) {
    row.name = name;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    const double dx = std::fabs(x.ms_b - x.ms_a);
    const double dy = std::fabs(y.ms_b - y.ms_a);
    if (dx != dy) return dx > dy;
    return x.name < y.name;
  });
  const Row& top = rows.front();
  std::printf("moved most: %s self CPU %.3f ms in A -> %.3f ms in B "
              "(%+.3f ms)\n",
              top.name.c_str(), top.ms_a, top.ms_b, top.ms_b - top.ms_a);
  gl::Table t({"span", "count A", "count B", "self CPU ms A",
               "self CPU ms B", "delta ms"});
  for (const auto& r : rows) {
    t.AddRow({r.name, gl::Table::Int(static_cast<long long>(r.count_a)),
              gl::Table::Int(static_cast<long long>(r.count_b)),
              gl::Table::Num(r.ms_a, 3), gl::Table::Num(r.ms_b, 3),
              gl::Table::Num(r.ms_b - r.ms_a, 3)});
  }
  t.Print();
  return 0;
}

// What a diff input is, told by its first bytes.
enum class Artifact { kNone, kStream, kTrace };

Artifact KindOf(const std::string& path) {
  std::ifstream in(path);
  if (!in) std::fprintf(stderr, "gl_report: cannot open %s\n", path.c_str());
  std::string head(32, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(in.gcount()));
  if (head.rfind(kSchemaPrefix, 0) == 0) return Artifact::kStream;
  if (head.rfind("{\"traceEvents\":", 0) == 0) return Artifact::kTrace;
  return Artifact::kNone;
}

int Diff(const std::string& path_a, const std::string& path_b,
         double threshold) {
  const Artifact kind = KindOf(path_a);
  if (kind == Artifact::kNone || KindOf(path_b) != kind) {
    std::fprintf(stderr,
                 "gl_report diff: %s and %s are not two gl.epoch.v1 streams "
                 "or two Chrome traces\n",
                 path_a.c_str(), path_b.c_str());
    return 2;
  }
  if (kind == Artifact::kTrace) {
    ParsedTrace a, b;
    if (!ParseChromeTrace(path_a, a) || !ParseChromeTrace(path_b, b)) {
      return 2;
    }
    return DiffTraces(a, b);
  }
  std::vector<std::string> a, b;
  if (!ReadLines(path_a, a) || !ReadLines(path_b, b)) return 2;
  return DiffJsonl(a, b, threshold);
}

// --- world flags -----------------------------------------------------------

// The flags of the subcommands that run a world. One parser reads them all;
// each subcommand names the ones it takes and exits 2 on any other.
enum WorldFlag : unsigned {
  kScenario = 1u << 0,
  kTopology = 1u << 1,
  kSchedulers = 1u << 2,
  kEpochs = 1u << 3,
  kSeed = 1u << 4,
  kThreads = 1u << 5,
  kPee = 1u << 6,
  kPeeStrict = 1u << 7,
  kFailFast = 1u << 8,
  kEstimated = 1u << 9,
  kVerbose = 1u << 10,
  kJsonl = 1u << 11,
  kTrace = 1u << 12,
  kWorld = kScenario | kTopology | kSchedulers | kEpochs,
};

struct WorldArgs {
  std::string scenario = "twitter";
  std::string topology;    // "" = the scenario's own
  std::string schedulers;  // comma list or "all"; default set per subcommand
  int epochs = -1;         // scenario default
  std::uint64_t seed = 0xfeed;
  int threads = 1;  // replay: partitioner fan-out of the second run
  double pee = 0.70;
  bool pee_strict = false;
  bool fail_fast = false;
  bool estimated = false;
  bool verbose = false;
  std::string jsonl;  // "" = no JSONL file
  std::string trace;  // "" = no Chrome trace file
};

// Parses argv[2..] into `args`, taking only the flags in `accepted`.
bool ParseWorldArgs(int argc, char** argv, unsigned accepted,
                    WorldArgs& args) {
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    unsigned flag = 0;
    if (ParseFlag(arg, "--scenario=", args.scenario)) {
      flag = kScenario;
    } else if (ParseFlag(arg, "--topology=", args.topology)) {
      flag = kTopology;
    } else if (ParseFlag(arg, "--schedulers=", args.schedulers)) {
      flag = kSchedulers;
    } else if (ParseFlag(arg, "--jsonl=", args.jsonl)) {
      flag = kJsonl;
    } else if (ParseFlag(arg, "--trace=", args.trace)) {
      flag = kTrace;
    } else if (ParseFlag(arg, "--epochs=", value)) {
      args.epochs = std::atoi(value.c_str());
      flag = kEpochs;
    } else if (ParseFlag(arg, "--seed=", value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 0);
      flag = kSeed;
    } else if (ParseFlag(arg, "--threads=", value)) {
      args.threads = std::atoi(value.c_str());
      flag = kThreads;
    } else if (ParseFlag(arg, "--pee=", value)) {
      args.pee = std::atof(value.c_str());
      flag = kPee;
    } else if (std::strcmp(arg, "--pee-strict") == 0) {
      args.pee_strict = true;
      flag = kPeeStrict;
    } else if (std::strcmp(arg, "--fail-fast") == 0) {
      args.fail_fast = true;
      flag = kFailFast;
    } else if (std::strcmp(arg, "--estimated") == 0) {
      args.estimated = true;
      flag = kEstimated;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      args.verbose = true;
      flag = kVerbose;
    }
    if ((flag & accepted) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return false;
    }
  }
  return true;
}

struct Setup {
  gl::World world;
  std::vector<std::string> schedulers;
};

// The world and the schedulers the flags name, built through the name table
// (sim/names.h), or nullopt after printing which name is unknown.
std::optional<Setup> Resolve(const WorldArgs& args) {
  const auto& known = gl::NamedSchedulers();
  std::vector<std::string> schedulers =
      args.schedulers == "all" ? known : SplitCommas(args.schedulers);
  if (schedulers.empty()) {
    std::fprintf(stderr, "no schedulers given\n");
    return std::nullopt;
  }
  for (const auto& name : schedulers) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown scheduler: %s\n", name.c_str());
      return std::nullopt;
    }
  }
  std::optional<gl::World> world =
      gl::MakeWorld(args.scenario, args.topology, args.epochs);
  if (!world) {
    const auto& scenarios = gl::NamedScenarios();
    if (std::find(scenarios.begin(), scenarios.end(), args.scenario) ==
        scenarios.end()) {
      std::fprintf(stderr, "unknown scenario: %s\n", args.scenario.c_str());
    } else {
      std::fprintf(stderr, "unknown topology: %s\n", args.topology.c_str());
    }
    return std::nullopt;
  }
  return Setup{std::move(*world), std::move(schedulers)};
}

// The world's runner options for one run of run or replay: hashed epochs,
// --estimated demands and the JSONL sink (may be null).
gl::RunnerOptions HashedRunnerOptions(const gl::World& world,
                                      const WorldArgs& args,
                                      gl::obs::RunLogger* logger) {
  gl::RunnerOptions opts = world.runner;
  opts.record_state_hashes = true;
  opts.use_estimated_demands = args.estimated;
  opts.logger = logger;
  return opts;
}

// --- run -------------------------------------------------------------------

int Run(const WorldArgs& args) {
  std::optional<Setup> setup = Resolve(args);
  if (!setup) return 2;
  const gl::World& world = setup->world;

  std::string sink;
  std::unique_ptr<gl::obs::RunLogger> logger;
  if (args.jsonl.empty()) {
    logger = std::make_unique<gl::obs::RunLogger>(&sink);
  } else {
    logger = std::make_unique<gl::obs::RunLogger>(args.jsonl);
  }
  if (!logger->ok()) return 1;

  gl::obs::Trace trace;
  trace.Activate();

  const gl::ExperimentRunner runner(
      *world.scenario, world.topology,
      HashedRunnerOptions(world, args, logger.get()));

  std::printf("gl_report run: scenario=%s topology=%s epochs=%d "
              "schedulers=%s\n",
              world.scenario->name().c_str(), world.topology_name.c_str(),
              world.scenario->num_epochs(), args.schedulers.c_str());
  std::vector<gl::ExperimentResult> results;
  for (const auto& name : setup->schedulers) {
    auto scheduler = gl::MakeNamedScheduler(name, args.pee, args.seed);
    results.push_back(runner.Run(*scheduler));
  }
  trace.Deactivate();

  gl::PrintBanner("per-policy averages");
  gl::Table avg({"policy", "servers", "power W", "TCT ms", "p99 ms", "J/req",
                 "SLA viol", "migr/epoch", "unplaced", "epoch ms"});
  for (const auto& r : results) {
    const auto m = r.Average();
    avg.AddRow({r.scheduler, gl::Table::Int(m.active_servers),
                gl::Table::Num(m.total_watts, 0),
                gl::Table::Num(m.mean_tct_ms, 2),
                gl::Table::Num(m.p99_tct_ms, 2),
                gl::Table::Num(m.energy_per_request_j, 4),
                gl::Table::Pct(m.sla_violation_rate),
                gl::Table::Int(m.migrations),
                gl::Table::Int(m.unplaced_containers),
                gl::Table::Num(m.wall_ms, 3)});
  }
  avg.Print();

  gl::PrintBanner("trace phase summary (inclusive ms, informational)");
  gl::Table phases({"span", "count", "total ms", "max ms"});
  for (const auto& s : trace.Summary()) {
    phases.AddRow({s.name, gl::Table::Int(static_cast<long long>(s.count)),
                   gl::Table::Num(s.total_ms, 2), gl::Table::Num(s.max_ms, 3)});
  }
  phases.Print();

  if (args.jsonl.empty()) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < sink.size()) {
      const std::size_t nl = sink.find('\n', start);
      const std::size_t end = nl == std::string::npos ? sink.size() : nl;
      if (end > start) lines.push_back(sink.substr(start, end - start));
      start = end + 1;
    }
    PrintTables(lines);
  } else {
    std::printf("wrote %llu JSONL records to %s\n",
                static_cast<unsigned long long>(logger->lines_written()),
                args.jsonl.c_str());
  }
  if (!args.trace.empty()) {
    if (!trace.WriteChromeJson(args.trace)) return 1;
    std::printf("wrote Chrome trace to %s (load at chrome://tracing)\n",
                args.trace.c_str());
  }
  return 0;
}

// --- replay ----------------------------------------------------------------

// One seeded run: fresh scheduler, fresh runner, hashed epochs. `logger`
// (may be null) attaches the JSONL sink to this run only.
std::vector<gl::EpochStateHash> ReplayOnce(const std::string& name,
                                           const gl::World& world,
                                           const WorldArgs& args, int threads,
                                           gl::obs::RunLogger* logger) {
  auto scheduler = gl::MakeNamedScheduler(name, args.pee, args.seed, threads);
  const gl::ExperimentRunner runner(*world.scenario, world.topology,
                                    HashedRunnerOptions(world, args, logger));
  return runner.Run(*scheduler).state_hashes;
}

// Returns true when the two same-seed runs agree bit-for-bit. The first run
// is always serial with observability off; the second uses args.threads and
// carries the JSONL sink and the trace (each may be null), so --threads>1
// also gates serial-vs-parallel equivalence and --jsonl/--trace gate
// obs-neutrality.
bool ReplayScheduler(const std::string& name, const gl::World& world,
                     const WorldArgs& args, gl::obs::RunLogger* logger,
                     gl::obs::Trace* trace) {
  const auto first = ReplayOnce(name, world, args, 1, nullptr);
  if (trace != nullptr) trace->Activate();
  const auto second = ReplayOnce(name, world, args, args.threads, logger);
  if (trace != nullptr) trace->Deactivate();

  if (first.size() != second.size()) {
    std::printf("%-10s FAIL: run lengths differ (%zu vs %zu epochs)\n",
                name.c_str(), first.size(), second.size());
    return false;
  }
  for (std::size_t e = 0; e < first.size(); ++e) {
    if (args.verbose) std::puts(first[e].ToString().c_str());
    const char* diverged = gl::FirstDivergentSubsystem(first[e], second[e]);
    if (diverged != nullptr) {
      std::printf("%-10s FAIL: first divergence at epoch %zu in subsystem "
                  "'%s'\n  run 1: %s\n  run 2: %s\n",
                  name.c_str(), e, diverged, first[e].ToString().c_str(),
                  second[e].ToString().c_str());
      return false;
    }
  }
  const std::uint64_t digest = first.empty() ? 0 : first.back().Combined();
  std::printf("%-10s OK: %zu epochs bit-identical, final digest %016llx\n",
              name.c_str(), first.size(),
              static_cast<unsigned long long>(digest));
  return true;
}

int Replay(const WorldArgs& args) {
  std::optional<Setup> setup = Resolve(args);
  if (!setup) return 2;
  const gl::World& world = setup->world;

  std::printf("seed-replay gate: scenario=%s topology=%s epochs=%d "
              "demands=%s threads=1-vs-%d\n",
              world.scenario->name().c_str(), world.topology_name.c_str(),
              world.scenario->num_epochs(),
              args.estimated ? "estimated" : "oracle", args.threads);
  std::unique_ptr<gl::obs::RunLogger> logger;
  if (!args.jsonl.empty()) {
    logger = std::make_unique<gl::obs::RunLogger>(args.jsonl);
    if (!logger->ok()) return 2;
  }
  gl::obs::Trace trace;

  int failures = 0;
  for (const auto& name : setup->schedulers) {
    failures += ReplayScheduler(name, world, args, logger.get(),
                                args.trace.empty() ? nullptr : &trace)
                    ? 0
                    : 1;
  }

  if (!args.trace.empty() && trace.WriteChromeJson(args.trace)) {
    std::printf("wrote Chrome trace to %s\n", args.trace.c_str());
  }
  if (logger != nullptr) {
    std::printf("wrote %llu JSONL records to %s\n",
                static_cast<unsigned long long>(logger->lines_written()),
                args.jsonl.c_str());
  }
  if (failures > 0) {
    std::printf("%d of %zu scheduler replays diverged\n", failures,
                setup->schedulers.size());
    return 1;
  }
  std::printf("all %zu scheduler replays bit-identical\n",
              setup->schedulers.size());
  return 0;
}

// --- audit -----------------------------------------------------------------

int Audit(const WorldArgs& args) {
  std::optional<Setup> setup = Resolve(args);
  if (!setup) return 2;
  const gl::World& world = setup->world;
  const gl::Topology& topo = world.topology;

  gl::AuditOptions audit_opts;
  audit_opts.pee_utilization = args.pee;
  audit_opts.pee_cap_is_error = args.pee_strict;
  const gl::InvariantAuditor auditor(audit_opts);

  // Static state first: the topology tree and the shipped power models are
  // audited once, before any placement runs. Bandwidth reservations travel
  // with each placement, so the per-epoch audits below check them.
  gl::AuditReport static_report;
  auditor.AuditTopology(topo, static_report);
  const gl::ServerPowerModel models[] = {
      gl::ServerPowerModel::Dell2018(), gl::ServerPowerModel::DellR940(),
      gl::ServerPowerModel::Linear2010(), gl::ServerPowerModel::Facebook1S(),
      gl::ServerPowerModel::MicrosoftBlade()};
  for (const auto& model : models) {
    auditor.AuditPowerModel(model, static_report);
  }
  std::printf("static audit (%s, %d servers): %d error(s), %d warning(s)\n",
              world.topology_name.c_str(), topo.num_servers(),
              static_report.errors(), static_report.warnings());
  if (!static_report.clean()) {
    std::fputs(static_report.ToString().c_str(), stdout);
  }

  int errors = static_report.errors();
  const gl::Scenario& scenario = *world.scenario;
  for (const auto& name : setup->schedulers) {
    gl::EpochController controller(gl::MakeNamedScheduler(name, args.pee),
                                   topo);
    controller.EnableAudit(audit_opts, args.fail_fast);
    for (int epoch = 0; epoch < scenario.num_epochs(); ++epoch) {
      const auto demands = scenario.DemandsAt(epoch);
      const auto active = scenario.ActiveAt(epoch);
      const auto decision =
          controller.Step(scenario.workload(), demands, active);
      std::printf("epoch %3d: placed %4d  migrations %d", epoch,
                  decision.containers_placed, decision.containers_moved);
      if (!decision.plan.stuck.empty()) {
        std::printf(" (%zu stuck)", decision.plan.stuck.size());
      }
      std::printf("  findings so far %zu\n",
                  controller.audit_report().findings.size());
    }
    const gl::AuditReport& report = controller.audit_report();
    std::printf("\n%s — %s over %d epochs: %d error(s), %d warning(s)\n",
                name.c_str(), args.scenario.c_str(), scenario.num_epochs(),
                report.errors(), report.warnings());
    if (!report.clean()) std::fputs(report.ToString().c_str(), stdout);
    errors += report.errors();
  }
  return errors > 0 ? 1 : 0;
}

// The subcommands that run a world: the flags each takes and its default
// schedulers.
struct WorldCommand {
  const char* name;
  const char* schedulers;
  unsigned flags;
  int (*fn)(const WorldArgs&);
};

constexpr WorldCommand kWorldCommands[] = {
    {"run", "goldilocks,borg",
     kWorld | kSeed | kPee | kEstimated | kJsonl | kTrace, Run},
    {"replay", "all",
     kWorld | kSeed | kThreads | kEstimated | kVerbose | kJsonl | kTrace,
     Replay},
    {"audit", "goldilocks", kWorld | kPee | kPeeStrict | kFailFast, Audit},
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gl_report run    [world flags] [--seed=N] [--pee=F] [--estimated]\n"
      "                   [--jsonl=PATH] [--trace=PATH]\n"
      "  gl_report replay [world flags] [--seed=N] [--threads=N] "
      "[--estimated]\n"
      "                   [--verbose] [--jsonl=PATH] [--trace=PATH]\n"
      "  gl_report audit  [world flags] [--pee=F] [--pee-strict] "
      "[--fail-fast]\n"
      "  gl_report tables FILE.jsonl\n"
      "  gl_report profile TRACE.json [--root=NAME] [--top=N]\n"
      "  gl_report flame  TRACE.json [--out=PATH]\n"
      "  gl_report diff   A B [--threshold=FRACTION]   (default 0.10)\n"
      "                   two gl.epoch.v1 streams: exit 1 on a deterministic\n"
      "                   difference; two traces: self CPU per span, exit 0\n"
      "world flags:\n"
      "  --scenario=twitter|azure|msr       (default twitter)\n"
      "  --topology=testbed16|fattree<k>|leafspine   (default: the "
      "scenario's)\n"
      "  --schedulers=a,b,...|all           (goldilocks mpp borg epvm rc "
      "random;\n"
      "                                      default: run goldilocks,borg,\n"
      "                                      replay all, audit goldilocks)\n"
      "  --epochs=N                         (default: the scenario's)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];

  for (const auto& cmd : kWorldCommands) {
    if (mode != cmd.name) continue;
    WorldArgs args;
    args.schedulers = cmd.schedulers;
    if (!ParseWorldArgs(argc, argv, cmd.flags, args)) return 2;
    return cmd.fn(args);
  }
  if (mode == "tables") {
    if (argc != 3) return Usage();
    std::vector<std::string> lines;
    if (!ReadLines(argv[2], lines)) return 1;
    PrintTables(lines);
    return 0;
  }
  if (mode == "profile") {
    if (argc < 3) return Usage();
    std::string root, value;
    int top_n = 15;
    for (int i = 3; i < argc; ++i) {
      if (ParseFlag(argv[i], "--root=", root)) continue;
      if (ParseFlag(argv[i], "--top=", value)) {
        top_n = std::max(1, std::atoi(value.c_str()));
        continue;
      }
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return ProfileCmd(argv[2], root, top_n);
  }
  if (mode == "flame") {
    if (argc < 3) return Usage();
    std::string out_path;
    for (int i = 3; i < argc; ++i) {
      if (ParseFlag(argv[i], "--out=", out_path)) continue;
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return FlameCmd(argv[2], out_path);
  }
  if (mode == "diff") {
    if (argc < 4) return Usage();
    double threshold = 0.10;
    std::string value;
    for (int i = 4; i < argc; ++i) {
      if (ParseFlag(argv[i], "--threshold=", value)) {
        threshold = std::strtod(value.c_str(), nullptr);
        continue;
      }
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return Diff(argv[2], argv[3], threshold);
  }
  return Usage();
}
