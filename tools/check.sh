#!/usr/bin/env bash
# Full correctness gate: warnings-as-errors Release build + tier-1 ctest,
# then the same suite under AddressSanitizer + UndefinedBehaviorSanitizer.
# This is what CI runs; run it locally before sending a change.
#
#   tools/check.sh            # analyze + release + asan stages
#   tools/check.sh analyze    # gl_analyze contract checker (builds the tool)
#   tools/check.sh release    # Release stage + observability smokes only
#   tools/check.sh asan       # ASan+UBSan stage only
#   tools/check.sh tsan       # ThreadSanitizer stage (parallel paths)
#   tools/check.sh tidy       # clang-tidy over src/ (needs clang-tidy)
#
# Build trees go to build-check-<stage>/ so they never collide with the
# default build/ directory.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
STAGE="${1:-all}"

case "${STAGE}" in
  all|analyze|release|asan|tsan|tidy) ;;
  *)
    echo "unknown stage: ${STAGE} (expected all, analyze, release, asan, tsan or tidy)" >&2
    exit 2
    ;;
esac

run_stage() {
  local name="$1" dir="$2"
  shift 2
  echo "==> configure ${name}"
  cmake -B "${dir}" -S . "$@"
  echo "==> build ${name}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> test ${name}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# Static half of the determinism and concurrency contracts (DESIGN.md §8):
# gl_analyze (§12, with its dataflow rules in §13 and its narrowing check in
# §14) runs the fixture corpus, then the whole tree (src/, bench/, tools/ —
# fixture dirs are skipped by the scanner) must be clean modulo the
# committed baseline, with no stale entries, and src/power/ must keep full
# GL014 dimension coverage.
if [[ "${STAGE}" == "all" || "${STAGE}" == "analyze" ]]; then
  echo "==> build gl_analyze"
  cmake -B build-check-analyze -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-check-analyze -j "${JOBS}" --target gl_analyze
  echo "==> gl_analyze self-test"
  ./build-check-analyze/tools/analyze/gl_analyze --self-test
  echo "==> gl_analyze src/ bench/ tools/"
  ./build-check-analyze/tools/analyze/gl_analyze \
    --baseline=tools/analyze/baseline.txt \
    --cache=build-check-analyze/gl_analyze.cache \
    --units-strict=src/power \
    src bench tools
fi

if [[ "${STAGE}" == "all" || "${STAGE}" == "release" ]]; then
  run_stage "Release (-Werror)" build-check-release \
    -DCMAKE_BUILD_TYPE=Release -DGOLDILOCKS_WERROR=ON
  # The runtime half of the determinism contract, the seed-replay gate
  # (gl_report replay), runs in ctest above, in every stage.
  # Observability smoke (DESIGN.md §10): an instrumented two-policy run must
  # produce a valid JSONL stream and a Chrome trace, a second same-seed run
  # must match it record by record outside the "timings" sections (the
  # run-diff exits 1 otherwise), and the replay gate with --jsonl proves
  # enabling observability changes no state hash.
  echo "==> observability smoke (gl_report run/diff + obs-neutral replay)"
  OBS_DIR=build-check-release/obs-smoke
  mkdir -p "${OBS_DIR}"
  ./build-check-release/tools/gl_report run --epochs=8 \
    --jsonl="${OBS_DIR}/run1.jsonl" --trace="${OBS_DIR}/trace.json"
  ./build-check-release/tools/gl_report run --epochs=8 \
    --jsonl="${OBS_DIR}/run2.jsonl" --trace="${OBS_DIR}/trace2.json" \
    > /dev/null
  ./build-check-release/tools/gl_report diff \
    "${OBS_DIR}/run1.jsonl" "${OBS_DIR}/run2.jsonl"
  ./build-check-release/tools/gl_report replay --schedulers=goldilocks \
    --epochs=8 --jsonl="${OBS_DIR}/replay.jsonl"
  # Profiling smoke (DESIGN.md §15): the trace just captured must render a
  # critical-path profile and collapsed stacks, and the two runs' traces
  # must compare span by span (informational, exit 0). The parallel replay
  # proves profiling stays obs-neutral at threads=8 too.
  echo "==> profiling smoke (gl_report profile/flame/diff)"
  ./build-check-release/tools/gl_report profile "${OBS_DIR}/trace.json" \
    > /dev/null
  ./build-check-release/tools/gl_report flame "${OBS_DIR}/trace.json" \
    --out="${OBS_DIR}/stacks.txt"
  ./build-check-release/tools/gl_report diff \
    "${OBS_DIR}/trace.json" "${OBS_DIR}/trace2.json" \
    > "${OBS_DIR}/trace-diff.txt"
  head -n 1 "${OBS_DIR}/trace-diff.txt"
  ./build-check-release/tools/gl_report replay --schedulers=goldilocks \
    --epochs=8 --threads=8 --jsonl="${OBS_DIR}/replay-t8.jsonl"
  # Fig 13 with stock tools: two epochs of the msr world (49,392 containers
  # on the 28-ary fat tree) traced, then attributed per span; the profile
  # must name the graph build, FM refinement and TCT layers. The ~10 MB
  # trace stays outside obs-smoke/, which CI uploads, and the profile's
  # ~35K-step critical path stays in its file.
  echo "==> Fig 13 trace smoke (gl_report run --scenario=msr + profile)"
  FIG13_TRACE=build-check-release/fig13-trace.json
  FIG13_PROFILE=build-check-release/fig13-profile.txt
  ./build-check-release/tools/gl_report run --scenario=msr \
    --schedulers=goldilocks --epochs=2 --trace="${FIG13_TRACE}" > /dev/null
  ./build-check-release/tools/gl_report profile "${FIG13_TRACE}" \
    --root=runner.epoch > "${FIG13_PROFILE}"
  head -n 22 "${FIG13_PROFILE}"
  for span in graph.build partition.refine.fm epoch.tct; do
    grep -q "^| ${span} " "${FIG13_PROFILE}"
  done
  # Fig 13 output gate: four epochs of the bench (~3 s) must print exactly
  # the committed tables. This is the one check that runs Goldilocks reuse
  # epochs and all five policies at Fig 13 scale (gl_report run's msr
  # world repartitions every epoch), so a change that moves any of their
  # placements, powers or TCTs fails here.
  echo "==> Fig 13 output gate (bench_fig13_large_scale, 4 epochs)"
  GOLDILOCKS_FIG13_EPOCHS=4 ./build-check-release/bench/bench_fig13_large_scale \
    | diff tests/golden/fig13_four_epochs.txt -
fi

if [[ "${STAGE}" == "all" || "${STAGE}" == "asan" ]]; then
  # abort_on_error makes any ASan report kill the test immediately;
  # detect_leaks stays on where supported (Linux).
  export ASAN_OPTIONS="abort_on_error=1:check_initialization_order=1:strict_init_order=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  run_stage "ASan+UBSan" build-check-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGOLDILOCKS_WERROR=ON \
    "-DGOLDILOCKS_SANITIZE=address;undefined"
fi

if [[ "${STAGE}" == "tsan" ]]; then
  # Dynamic half of the concurrency contract (DESIGN.md §9): the thread
  # pool, the parallel partitioner and RunMany raced under TSan. The
  # parallel determinism tests drive every parallel path at threads up to 8
  # -- including the intra-bisection ones (chunked matching/contraction and
  # concurrent FM trials, via LargeBisectionIsExactlyThreadCountInvariant's
  # n=6000 graph above the parallel_min_vertices gate) -- so a data race
  # fails this stage even when it happens not to corrupt the state hashes.
  # ctest's gl_report_replay_threads8 and gl_report_replay_azure_threads8
  # replay every scheduler with the partitioner at 8 threads, and
  # gl_report_replay_msr_threads8 replays Goldilocks on the Fig 13 world,
  # whose bisections are large enough to run the pooled coarsening and FM
  # trials and whose frontier subtrees run on the pool (~20 s under TSan).
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  run_stage "TSan" build-check-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGOLDILOCKS_WERROR=ON \
    "-DGOLDILOCKS_SANITIZE=thread"
fi

if [[ "${STAGE}" == "tidy" ]]; then
  if ! command -v clang-tidy >/dev/null; then
    # Local machines often lack clang-tidy; warn and move on. No CI job runs
    # this stage (the check matrix runs release, asan and tsan; the clang
    # job runs release), but under CI=true a missing clang-tidy stays a hard
    # failure.
    if [[ "${CI:-}" == "true" ]]; then
      echo "clang-tidy not found on PATH" >&2
      exit 1
    fi
    echo "warning: clang-tidy not found on PATH; skipping tidy stage" >&2
    exit 0
  fi
  cmake -B build-check-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  # Headers are covered via the .cc files that include them. The analyzer
  # fixture corpus is token-stream test data, not production code; some
  # fixtures do not even compile.
  find src tools -name '*.cc' -not -path 'tools/analyze/fixtures/*' -print0 |
    xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build-check-tidy --quiet
fi

echo "==> all requested stages passed"
