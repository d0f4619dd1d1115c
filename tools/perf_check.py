#!/usr/bin/env python3
"""perf_check -- compare a fresh bench run against BENCH_partitioner.json.

CI's perf-smoke job runs bench_partitioner_scale --json on the PR build and
feeds the result here together with the committed reference at the repo
root. The reference may also be another raw bench --json file, so this is
the one comparison of two bench runs (gl_report diff compares run logs and
traces). Each fresh record is matched to the reference's records by
(name, threads) and the medians are compared. A median more than
--threshold (default 15%) slower than the reference emits a GitHub Actions
::warning:: annotation -- CI runners are shared and noisy, so a regression
warns rather than fails; a real regression shows up as a persistent warning
across pushes and is investigated by re-measuring locally (EXPERIMENTS.md,
"Partitioner scalability").

Beyond per-config medians, the thread sweep is checked for *scaling*
regressions: for every bench name present at both threads=1 and threads=8,
the fresh t8/t1 wall-ms ratio is compared to the reference's. A fresh ratio
more than --threshold above the reference's means parallel efficiency was
lost even if absolute times look fine (e.g. both got faster but the t8
speedup evaporated); that also warns rather than fails.

One check IS a hard gate: --serial-share-max. serial_share is the width-1
share of the instrumented run's critical path (serial_ms / path_ms, from
bench_partitioner_scale's cpu-time attribution) -- the Amdahl wall. Unlike
wall-clock medians it is a structural property of the trace, not of runner
load, so shared-runner noise is no excuse: when the flag is given, the
largest parallel configuration of the FRESH run (highest thread count,
then largest reference median) must keep serial_share at or below the
bound or the check exits 1 with a ::error:: annotation. Passing the flag
against a fresh run whose parallel records lack serial_share exits 2 --
the gate cannot silently pass on a bench too old to measure it.

Exit status is 0 unless the serial-share gate fails (exit 1) or the
inputs are unreadable, malformed, or no records matched (exit 2), so the
job cannot silently pass on a broken run.
Malformed inputs -- wrong top-level shape, records that are not objects,
missing or non-numeric fields -- produce a one-line error naming the file
and the offending record, never a traceback.

Usage:
    tools/perf_check.py --reference BENCH_partitioner.json \
                        --fresh fresh.json [--threshold 0.15] \
                        [--serial-share-max 0.5]
    tools/perf_check.py --self-test
"""

import argparse
import contextlib
import io
import json
import numbers
import os
import sys
import tempfile


class MalformedInput(Exception):
    """Input file exists and is JSON, but not bench-record shaped."""


#: Optional parallel-efficiency telemetry (ISSUE-9). Reported side by side
#: when a field is present and numeric in both the reference and the fresh
#: record, silently ignored otherwise -- older baselines predate them, and
#: they are informational (never a warning, never a gate).
TELEMETRY_FIELDS = ("parallel_efficiency", "critical_path_ms", "peak_bytes")


def _numeric(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _validate_records(records, path):
    """Returns {(name, threads): record}; raises MalformedInput otherwise."""
    if not isinstance(records, list):
        raise MalformedInput(f"{path}: records are {type(records).__name__}, "
                             "expected a list")
    if not records:
        raise MalformedInput(f"{path}: record list is empty")
    out = {}
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            raise MalformedInput(f"{path}: record #{i} is "
                                 f"{type(r).__name__}, expected an object")
        for field in ("name", "threads", "median_wall_ms"):
            if field not in r:
                raise MalformedInput(f"{path}: record #{i} lacks '{field}'")
        if not isinstance(r["median_wall_ms"], numbers.Real) or \
                isinstance(r["median_wall_ms"], bool):
            raise MalformedInput(
                f"{path}: record #{i} ('{r['name']}') has non-numeric "
                f"median_wall_ms: {r['median_wall_ms']!r}")
        out[(r["name"], r["threads"])] = r
    return out


def load_records(path, *, reference):
    """Returns {(name, threads): record} from either file shape.

    The committed reference wraps its records under current.records; a raw
    bench --json output is a flat list. A reference may be either, so two
    bench runs compare directly; the fresh file must be a raw list.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if reference and not isinstance(doc, list):
        if not isinstance(doc, dict) or \
                not isinstance(doc.get("current"), dict) or \
                "records" not in doc["current"]:
            raise MalformedInput(f"{path}: reference file is neither a "
                                 "record list nor has the current.records "
                                 "structure")
        doc = doc["current"]["records"]
    return _validate_records(doc, path)


def scaling_ratios(records):
    """Returns {name: t8_median / t1_median} for names with both configs."""
    out = {}
    for (name, threads), r in records.items():
        if threads == 1 and (name, 8) in records:
            t1 = r["median_wall_ms"]
            t8 = records[(name, 8)]["median_wall_ms"]
            if t1 > 0:
                out[name] = t8 / t1
    return out


def check_scaling(ref, fresh, threshold):
    """Warns when a fresh t8/t1 ratio exceeds the reference's by threshold.

    Returns (checked, warned). Warning-only, like the median check: shared
    runners make one-off wobble common, and a real scaling loss persists.
    """
    ref_ratios = scaling_ratios(ref)
    checked = warned = 0
    for name, fresh_ratio in sorted(scaling_ratios(fresh).items()):
        ref_ratio = ref_ratios.get(name)
        if ref_ratio is None:
            continue
        checked += 1
        line = (f"{name}: t8/t1 wall ratio {fresh_ratio:.2f} "
                f"vs reference {ref_ratio:.2f}")
        if fresh_ratio > ref_ratio * (1.0 + threshold):
            warned += 1
            print(f"::warning title=partitioner thread-scaling "
                  f"regression::{line}")
        else:
            print(f"perf_check: OK scaling {line}")
    return checked, warned


def check_serial_share(fresh, limit):
    """HARD gate: serial_share at the largest parallel config vs `limit`.

    The gated record is the fresh run's highest-thread-count configuration
    (ties broken by the larger median, i.e. the biggest problem), because
    that is where the Amdahl wall binds: a small-n config is allowed to be
    mostly serial, the flagship sweep point is not. Returns an exit code:
    0 pass, 1 gate failure, 2 when no parallel record carries a numeric
    serial_share (a bench too old to measure it must not pass the gate).
    """
    candidates = [r for r in fresh.values()
                  if r["threads"] > 1 and _numeric(r.get("serial_share"))]
    if not candidates:
        print("perf_check: --serial-share-max given but no parallel record "
              "has a numeric serial_share", file=sys.stderr)
        return 2
    gated = max(candidates,
                key=lambda r: (r["threads"], r["median_wall_ms"]))
    share = gated["serial_share"]
    line = (f"{gated['name']} threads={gated['threads']}: serial_share "
            f"{share:.3f} (limit {limit:.3f})")
    if share > limit:
        print(f"::error title=partitioner serial-share gate::{line}")
        return 1
    print(f"perf_check: OK serial-share {line}")
    return 0


def run(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", required=True,
                    help="committed BENCH_partitioner.json, or another "
                         "bench --json file")
    ap.add_argument("--fresh", required=True,
                    help="bench_partitioner_scale --json output to check")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="warn when fresh median exceeds reference by this "
                         "fraction (default 0.15)")
    ap.add_argument("--serial-share-max", type=float, default=None,
                    help="HARD gate: fail (exit 1) when serial_share at the "
                         "fresh run's largest parallel config exceeds this")
    args = ap.parse_args(argv)

    try:
        ref = load_records(args.reference, reference=True)
        fresh = load_records(args.fresh, reference=False)
    except (OSError, json.JSONDecodeError, MalformedInput) as e:
        print(f"perf_check: cannot load inputs: {e}", file=sys.stderr)
        return 2

    matched = 0
    regressions = 0
    for key, fr in sorted(fresh.items()):
        rr = ref.get(key)
        if rr is None:
            print(f"perf_check: no reference for {key[0]} threads={key[1]}; "
                  "skipping")
            continue
        matched += 1
        ref_med = rr["median_wall_ms"]
        fresh_med = fr["median_wall_ms"]
        ratio = fresh_med / ref_med if ref_med > 0 else float("inf")
        line = (f"{key[0]} threads={key[1]}: median {fresh_med:.1f} ms "
                f"vs reference {ref_med:.1f} ms ({ratio:.2f}x)")
        if ratio > 1.0 + args.threshold:
            regressions += 1
            print(f"::warning title=partitioner perf regression::{line}")
        else:
            print(f"perf_check: OK {line}")
        for field in TELEMETRY_FIELDS:
            fresh_v, ref_v = fr.get(field), rr.get(field)
            if _numeric(fresh_v) and _numeric(ref_v):
                print(f"perf_check: info {key[0]} threads={key[1]} "
                      f"{field} {fresh_v:.3f} vs reference {ref_v:.3f}")

    if matched == 0:
        print("perf_check: no records matched the reference", file=sys.stderr)
        return 2
    scaled, scale_warned = check_scaling(ref, fresh, args.threshold)
    gate_status = 0
    if args.serial_share_max is not None:
        gate_status = check_serial_share(fresh, args.serial_share_max)
    print(f"perf_check: {matched} configs checked, "
          f"{regressions} above threshold; {scaled} scaling ratios checked, "
          f"{scale_warned} above threshold")
    return gate_status


def self_test():
    """End-to-end checks through run(): good inputs pass, each malformed
    shape exits 2 with a message instead of a traceback."""
    good_rec = {"name": "bench", "threads": 1, "median_wall_ms": 10.0}
    good_ref = {"current": {"records": [good_rec]}}

    cases = [
        ("matching inputs pass", good_ref, [good_rec], 0),
        ("regressed fresh still exits 0 (warn-only)", good_ref,
         [dict(good_rec, median_wall_ms=100.0)], 0),
        ("empty fresh list", good_ref, [], 2),
        ("fresh is an object, not a list", good_ref, {"oops": 1}, 2),
        ("fresh record is not an object", good_ref, ["oops"], 2),
        ("fresh record lacks median", good_ref,
         [{"name": "bench", "threads": 1}], 2),
        ("fresh median is a string", good_ref,
         [dict(good_rec, median_wall_ms="fast")], 2),
        ("reference lacks current.records", {"current": {}}, [good_rec], 2),
        ("two raw bench --json files compare", [good_rec], [good_rec], 0),
        ("raw reference list still validates its records", [{"oops": 1}],
         [good_rec], 2),
        ("no key overlap", good_ref,
         [dict(good_rec, name="other")], 2),
    ]

    failures = 0
    with tempfile.TemporaryDirectory(prefix="perf_check_selftest_") as tmp:
        bad_json = os.path.join(tmp, "bad.json")
        with open(bad_json, "w", encoding="utf-8") as f:
            f.write("{not json")
        ref_path = os.path.join(tmp, "ref.json")
        fresh_path = os.path.join(tmp, "fresh.json")

        for label, ref_doc, fresh_doc, want in cases:
            with open(ref_path, "w", encoding="utf-8") as f:
                json.dump(ref_doc, f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(fresh_doc, f)
            got = run(["--reference", ref_path, "--fresh", fresh_path])
            status = "PASS" if got == want else "FAIL"
            failures += got != want
            print(f"{status} {label} (exit {got}, want {want})")

        for label, argv, want in [
            ("fresh file missing", ["--reference", ref_path, "--fresh",
                                    os.path.join(tmp, "nope.json")], 2),
            ("fresh file is not JSON", ["--reference", ref_path, "--fresh",
                                        bad_json], 2),
        ]:
            got = run(argv)
            status = "PASS" if got == want else "FAIL"
            failures += got != want
            print(f"{status} {label} (exit {got}, want {want})")

        # Thread-scaling check: the t8/t1 ratio regressing warns even when
        # every per-config median stays inside the threshold, and a uniform
        # slowdown (both configs +14%) leaves the ratio alone.
        def sweep(name, t1, t8):
            return [{"name": name, "threads": 1, "median_wall_ms": t1},
                    {"name": name, "threads": 8, "median_wall_ms": t8}]

        scale_ref = {"current": {"records": sweep("bench", 100.0, 50.0)}}
        scale_cases = [
            ("scaling ratio regression warns, exits 0",
             sweep("bench", 100.0, 60.0), True, 0),
            ("uniform slowdown keeps the ratio, no scaling warning",
             sweep("bench", 114.0, 57.0), False, 0),
            ("matching sweep is clean",
             sweep("bench", 100.0, 50.0), False, 0),
        ]
        for label, fresh_doc, want_warn, want in scale_cases:
            with open(ref_path, "w", encoding="utf-8") as f:
                json.dump(scale_ref, f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(fresh_doc, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got = run(["--reference", ref_path, "--fresh", fresh_path])
            warned = "thread-scaling" in out.getvalue()
            ok = got == want and warned == want_warn
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label} "
                  f"(exit {got}, warn={warned})")

        # Telemetry carry-through: reported when present in both records,
        # silently ignored when either side lacks it (older baselines), and
        # a non-numeric value on one side never crashes or warns.
        telem = {"parallel_efficiency": 0.8, "critical_path_ms": 40.0,
                 "peak_bytes": 1024}
        telem_cases = [
            ("telemetry in both sides is reported",
             {"current": {"records": [dict(good_rec, **telem)]}},
             [dict(good_rec, **telem)], True, 0),
            ("telemetry only in fresh is ignored", good_ref,
             [dict(good_rec, **telem)], False, 0),
            ("telemetry only in reference is ignored",
             {"current": {"records": [dict(good_rec, **telem)]}},
             [good_rec], False, 0),
            ("non-numeric telemetry is ignored",
             {"current": {"records": [dict(good_rec, **telem)]}},
             [dict(good_rec, parallel_efficiency="broken")], False, 0),
        ]
        for label, ref_doc, fresh_doc, want_info, want in telem_cases:
            with open(ref_path, "w", encoding="utf-8") as f:
                json.dump(ref_doc, f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(fresh_doc, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got = run(["--reference", ref_path, "--fresh", fresh_path])
            has_info = "perf_check: info" in out.getvalue()
            ok = got == want and has_info == want_info
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label} "
                  f"(exit {got}, info={has_info})")

        # Serial-share hard gate: exceeding the bound at the largest
        # parallel config exits 1 with an ::error::; a smaller parallel
        # config over the bound is NOT gated (only the flagship point is);
        # parallel records without the field exit 2 so an old bench binary
        # cannot slip past the gate; no flag means no gate.
        def share_rec(name, threads, median, share=None):
            r = {"name": name, "threads": threads, "median_wall_ms": median}
            if share is not None:
                r["serial_share"] = share
            return r

        share_ref = {"current": {"records": [
            share_rec("small", 8, 10.0), share_rec("big", 8, 100.0)]}}
        share_cases = [
            ("serial share under the bound passes",
             [share_rec("big", 8, 100.0, 0.4)], ["0.5"], False, 0),
            ("serial share over the bound fails hard",
             [share_rec("big", 8, 100.0, 0.6)], ["0.5"], True, 1),
            ("only the largest parallel config is gated",
             [share_rec("small", 8, 10.0, 0.9),
              share_rec("big", 8, 100.0, 0.4)], ["0.5"], False, 0),
            ("higher thread count outranks a larger median",
             [share_rec("small", 8, 10.0, 0.6),
              share_rec("big", 2, 100.0, 0.1)], ["0.5"], True, 1),
            ("missing serial_share cannot pass the gate",
             [share_rec("big", 8, 100.0)], ["0.5"], False, 2),
            ("no flag means no gate",
             [share_rec("big", 8, 100.0, 0.9)], [], False, 0),
        ]
        for label, fresh_doc, limit, want_error, want in share_cases:
            with open(ref_path, "w", encoding="utf-8") as f:
                json.dump(share_ref, f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(fresh_doc, f)
            argv = ["--reference", ref_path, "--fresh", fresh_path]
            if limit:
                argv += ["--serial-share-max", limit[0]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got = run(argv)
            errored = "serial-share gate" in out.getvalue()
            ok = got == want and errored == want_error
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label} "
                  f"(exit {got}, error={errored})")

    if failures == 0:
        print("perf_check self-test: all cases pass")
    return 0 if failures == 0 else 1


def main(argv):
    if argv and argv[0] == "--self-test":
        return self_test()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
