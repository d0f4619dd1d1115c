#!/usr/bin/env python3
"""Epoch benchmark for Goldilocks: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the benchmark package
(perfbench/CMakeLists.txt, which compiles src/ itself) into
.bench_build/perfbench; later calls reuse that build. Each call then

  1. runs tests/loop_faithfulness_test: the benchmark's loop must reproduce
     ExperimentRunner::Run epoch for epoch;
  2. runs epoch_bench for S seconds of whole passes over the workload;
  3. checks that every pass reproduced the first one, and that the quality
     columns and placement digest equal those of earlier runs of the same
     sources in this checkout;
  4. prints a readable report, then, as the last line, the JSON result:
     the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

The scenario behind each workload is pinned (README.md), so the quality
columns are exact and comparable across runs; --seed only seeds the
calibration spin. README.md defines every workload and metric.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORD = os.path.join(BUILD, "quality_record.json")
WORKLOADS = ("fig13_repartition", "fig13_reuse", "azure_controller")

BUILD_TIMEOUT_S = 840
TEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

# Traced span name -> per-layer self-time metric. Spans the library emits,
# plus the benchmark's own "bench.*" spans around each layer call.
SELF_TIME_LAYERS = {
    "graph.build": "core.graph_build_ms",
    "partition.coarsen.match": "graph.coarsen_match_ms",
    "partition.coarsen.contract": "graph.coarsen_contract_ms",
    "partition.refine.fm": "graph.refine_fm_ms",
    "partition.split": "graph.split_self_ms",
    "partition.recursive": "graph.partition_other_ms",
    "partition.coarsen": "graph.partition_other_ms",
    "partition.refine": "graph.partition_other_ms",
    "partition.refine.trial": "graph.partition_other_ms",
    "partition.parallel": "graph.partition_other_ms",
    "partition.worker": "graph.partition_other_ms",
    "goldilocks.partition": "core.partition_self_ms",
    "goldilocks.assign_symmetric": "core.assign_ms",
    "goldilocks.vc_reserve": "core.assign_ms",
    "vc.place_groups": "core.assign_ms",
    # Place minus partition minus assign: flow adjacency, the reuse/drift
    # check and the cache bookkeeping.
    "bench.place": "core.reuse_check_ms",
    "migration.plan": "sim.migration_ms",
    "bench.migration_cost": "sim.migration_ms",
}

# Outside-timed layer column -> per-layer metric (median ms per epoch).
OUTSIDE_LAYERS = {
    "demands": "workload.demands_ms",
    "decide": "core.controller_step_ms",
    "place": "core.place_ms",
    "audit": "analysis.audit_ms",
    "server_loads": "schedulers.server_loads_ms",
    "traffic": "netsim.traffic_ms",
    "network": "power.network_ms",
    "tct": "sim.tct_ms",
    "migration_cost": "sim.migration_cost_ms",
}

# Deterministic library counter -> per-layer count (mean per epoch).
COUNTERS = {
    "goldilocks.partition_cache_hits": "core.cache_hits",
    "goldilocks.pee_cap_rejections": "core.pee_cap_rejections",
    "goldilocks.sibling_merges": "core.sibling_merges",
    "goldilocks.refine_bisections": "core.refine_bisections",
    "graph.vertices_built": "core.graph_vertices_built",
    "partition.cut_edges_evaluated": "graph.cut_edges_evaluated",
    "partition.bisection_rejections": "graph.bisection_rejections",
    "partition.degenerate_splits": "graph.degenerate_splits",
    "graph.induced_subgraph_builds": "graph.induced_subgraph_builds",
    "migration.steps_planned": "sim.migration_steps_planned",
    "migration.bounces": "sim.migration_bounces",
    "migration.stuck": "sim.migration_stuck",
    "power.switches_gated": "power.switches_gated",
}
AUDIT_CLASSES = ("conservation", "capacity", "pee-cap", "bandwidth",
                 "replica-domains", "graph", "topology", "power-model")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_call(cmd, timeout):
    """Runs cmd with its output on stderr; stdout carries only the report."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout, cwd=ROOT)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "goldilocks.h")):
        raise RuntimeError("Goldilocks sources (src/) not found next to "
                           "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    check_call(["cmake", "--build", BUILD, "-j2"], BUILD_TIMEOUT_S)


def source_fingerprint():
    """Digest of every file under src/ and perfbench/: runs of the same
    sources must agree on the quality columns."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def check_against_record(workload, quality):
    """Compares this run's quality columns with the first run of the same
    sources; returns an error string or "" (and records a first run)."""
    key = source_fingerprint()
    record = {}
    if os.path.isfile(RECORD):
        with open(RECORD) as f:
            record = json.load(f)
    seen = record.setdefault(key, {}).get(workload)
    if seen is not None:
        diff = sorted(k for k in set(seen) | set(quality)
                      if seen.get(k) != quality.get(k))
        return ("differs from an earlier run: " + ", ".join(diff)) if diff \
            else ""
    record[key][workload] = quality
    tmp = RECORD + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    os.replace(tmp, RECORD)
    return ""


def median(values):
    return statistics.median(values) if values else float("nan")


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def best_of_passes(epochs, column, rows):
    """Each epoch of the pass at its best over the passes run. Every pass
    repeats the same work, so the best repeat is the epoch's time with the
    least interference from other load on the host."""
    by_index = {}
    for i in rows:
        by_index.setdefault(epochs["index"][i], []).append(epochs[column][i])
    return [min(v) for v in by_index.values()]


def best_pass_median(epochs, column, rows):
    """Median over the pass's fixed set of epochs of their best times, so
    the statistic does not jump with the number of passes that fit in the
    budget."""
    return median(best_of_passes(epochs, column, rows))


def tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100,
                                           method="inclusive")[p - 1]
    return None, None


def timing_line(label, values):
    if not values:
        return f"  {label:<22} none"
    p, v = tail(values)
    tail_text = f", p{p} {v:.3f}" if p else ", no percentile above p50 " \
        "has 10 samples beyond it"
    return (f"  {label:<22} n={len(values)}, p50 {median(values):.3f} ms"
            f"{tail_text}")


def end_to_end(raw):
    ep = raw["epochs"]
    q = raw["quality"]
    untraced = [i for i, t in enumerate(ep["traced"]) if not t]
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "epoch_ms_p50": (best_pass_median(ep, "wall_ms", untraced), "ms"),
        "epoch_cpu_ms_p50": (best_pass_median(ep, "cpu_ms", untraced), "ms"),
        "epochs_per_s": (1e3 * raw["pass_epochs"] / sum(
            best_of_passes(ep, "wall_ms", untraced)), "1/s"),
        "mean_power_kw": (q["mean_power_kw"], "kW"),
        "mean_tct_ms": (q["mean_tct_ms"], "sim_ms"),
        "p99_tct_ms": (q["p99_tct_ms"], "sim_ms"),
        "migrations_per_epoch": (q["migrations_per_epoch"], "count"),
        "cut_weight": (q["cut_weight"], "flows"),
        "clean_epoch_share": (q["clean_epoch_share"], "share"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    ep = raw["epochs"]
    untraced = [i for i, t in enumerate(ep["traced"]) if not t]
    traced = [i for i, t in enumerate(ep["traced"]) if t]
    out = {}
    for column, name in OUTSIDE_LAYERS.items():
        out[name] = (best_pass_median(ep, column, untraced), "ms")

    tr = raw["traced"]
    n_traced = len(tr["epoch_ms"])
    self_sums = {}
    for span, values in tr["self_ms"].items():
        metric = SELF_TIME_LAYERS.get(span)
        if metric is not None:
            self_sums[metric] = self_sums.get(metric, 0.0) + sum(values)
    for metric in sorted(set(SELF_TIME_LAYERS.values())):
        out[metric] = (self_sums.get(metric, 0.0) / n_traced, "ms")
    epoch_self = tr["self_ms"].get("bench.epoch", [])
    layer_sum = [sum(v[i] for s, v in tr["self_ms"].items()
                     if s != "bench.epoch") for i in range(n_traced)]
    out["trace.epoch_ms"] = (mean(tr["epoch_ms"]), "ms")
    out["trace.layer_self_sum_ms"] = (mean(layer_sum), "ms")
    out["trace.unattributed_ms"] = (mean(epoch_self), "ms")
    traced_p50 = best_pass_median(ep, "wall_ms", traced)
    untraced_p50 = best_pass_median(ep, "wall_ms", untraced)
    out["tracing_overhead_pct"] = (
        (traced_p50 / untraced_p50 - 1.0) * 100.0, "%")

    out["calib_spin_ms"] = (median(raw["calib_spin_ms"]), "ms")
    out["usable_cores"] = (raw["usable_cores"], "cores")

    counters = raw["counters_per_epoch"]
    for counter, name in COUNTERS.items():
        out[name] = (counters.get(counter, 0.0), "count")
    splits = tr["span_counts"].get("partition.split", [])
    out["graph.splits"] = (sum(splits) / n_traced, "count")
    for cls in AUDIT_CLASSES:
        out["analysis.findings." + cls] = (
            counters.get("audit.findings." + cls, 0.0), "count")
    out["graph.scratch_peak_bytes"] = (
        raw["info_gauges"].get("partition.scratch_peak_bytes", 0.0), "bytes")
    out["graph.scratch_grow_events"] = (
        raw["info_counters"].get("partition.scratch_grow_events", 0),
        "count")
    return out


def report(raw, metrics, problems):
    ep = raw["epochs"]
    q = raw["quality"]
    lines = [f"workload {raw['workload']}: {raw['passes']} passes of "
             f"{raw['pass_epochs']} epochs"]
    lines.append(f"  host: nproc {raw['nproc']}, usable cores "
                 f"{raw['usable_cores']:.2f}, calib spin p50 "
                 f"{median(raw['calib_spin_ms']):.2f} ms")
    lines.append(f"  setup: {len(raw['setup_s'])} runs, p50 "
                 f"{median(raw['setup_s']) * 1e3:.2f} ms wall, "
                 f"{median(raw['setup_cpu_s']) * 1e3:.2f} ms cpu")
    for traced in (0, 1):
        rows = [i for i, t in enumerate(ep["traced"]) if t == traced]
        if not rows:
            continue
        tag = "traced" if traced else "untraced"
        for kind, flag in (("repartition", 1), ("reuse", 0)):
            wall = [ep["wall_ms"][i] for i in rows
                    if ep["repartition"][i] == flag]
            cpu = [ep["cpu_ms"][i] for i in rows
                   if ep["repartition"][i] == flag]
            if wall:
                lines.append(timing_line(f"{tag} {kind} wall", wall))
                lines.append(timing_line(f"{tag} {kind} cpu", cpu))
    lines.append(f"  audit: {q['audit_errors_per_epoch']:.4f} errors and "
                 f"{q['audit_warnings_per_epoch']:.4f} warnings per epoch; "
                 f"unplaced per epoch {q['unplaced_per_epoch']:.4f}")
    lines.append(f"  digest {q['digest']}, final placement "
                 f"{q['final_placement']}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<34} {value:.6g} {unit}")
    for p in problems:
        lines.append(f"  CHECK FAILED: {p}")
    print("\n".join(lines), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    problems = []
    test = subprocess.run([os.path.join(BUILD, "loop_faithfulness_test")],
                          capture_output=True, text=True,
                          timeout=TEST_TIMEOUT_S, cwd=ROOT)
    if test.returncode != 0:
        problems.append("loop_faithfulness_test: " + test.stdout.strip())

    try:
        run = subprocess.run(
            [os.path.join(BUILD, "epoch_bench"), "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--seed", str(args.seed)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, cwd=ROOT, check=True)
        raw = json.loads(run.stdout)
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"perfbench: epoch_bench failed: {e}")
        return 3

    if not raw["passes_match"]:
        problems.append("passes disagree: " + raw["mismatch"])
    quality = dict(raw["quality"])
    quality["counters_per_epoch"] = raw["counters_per_epoch"]
    mismatch = check_against_record(args.workload, quality)
    if mismatch:
        problems.append("quality columns " + mismatch)

    metrics = end_to_end(raw) if args.trace == 0 else per_layer(raw)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
    report(raw, metrics, problems)

    attempted = raw["pass_epochs"] * raw["passes"]
    failed = raw["quality"]["admission_failed_epochs"] * raw["passes"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
