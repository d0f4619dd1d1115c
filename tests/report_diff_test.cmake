# Cases for `gl_report diff` that a comparison of per-scheduler sums cannot
# see. Each stream case diffs the committed golden stream A against a copy of
# golden B with one perturbation, and passes only on exit 1 (a deterministic
# difference), never on exit 2 (unusable input):
#
#   cancel     two Goldilocks epochs' partition.cut_edges_evaluated moved by
#              +1 and -1, so every sum still matches
#   only_b     a counter that only B carries
#   no_borg    every Borg record dropped
#   truncated  the last record dropped
#   no_schema  one record's schema tag changed
#   no_tail    one record's "timings" tail cut off
#
# Two hand-written traces must name the span whose self CPU moved most on
# the first line and exit 0; a stream against a trace and two bench --json
# lists must exit 2.
#
#   cmake -DGL_REPORT=<gl_report> -DGOLDEN=<tests/golden> -DWORK=<dir> \
#         -P tests/report_diff_test.cmake

file(MAKE_DIRECTORY "${WORK}")
file(STRINGS "${GOLDEN}/epoch_run_b.jsonl" golden_b)
set(golden_a "${GOLDEN}/epoch_run_a.jsonl")
set(failures 0)

# Runs `gl_report diff A B` and records a failure unless it exits `want`
# and its stdout matches `pattern`.
function(expect_diff name path_a path_b want pattern)
  execute_process(COMMAND "${GL_REPORT}" diff "${path_a}" "${path_b}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${want}" OR NOT out MATCHES "${pattern}")
    message(SEND_ERROR "${name}: exit ${rc}, want ${want} and output "
                       "matching '${pattern}'\n${out}${err}")
    math(EXPR n "${failures} + 1")
    set(failures ${n} PARENT_SCOPE)
  else()
    message(STATUS "${name}: exit ${rc} as expected")
  endif()
endfunction()

# Writes the list of records `lines` as WORK/<name>.jsonl and diffs golden A
# against it.
function(expect_stream_diff name lines)
  set(path "${WORK}/${name}.jsonl")
  string(REPLACE ";" "\n" text "${lines}")
  file(WRITE "${path}" "${text}\n")
  expect_diff(${name} "${golden_a}" "${path}" 1 "deterministic difference")
  set(failures ${failures} PARENT_SCOPE)
endfunction()

# Record `index` of golden B with `cut_edges_evaluated` moved by `delta`.
function(bump_cut_edges index delta out)
  list(GET golden_b ${index} line)
  set(key "\"partition.cut_edges_evaluated\":")
  if(NOT line MATCHES "${key}([0-9]+)")
    message(FATAL_ERROR "record ${index} of golden B lacks ${key}")
  endif()
  math(EXPR value "${CMAKE_MATCH_1} + (${delta})")
  string(REPLACE "${key}${CMAKE_MATCH_1}" "${key}${value}" line "${line}")
  set(${out} "${line}" PARENT_SCOPE)
endfunction()

list(LENGTH golden_b records)
math(EXPR last "${records} - 1")

set(lines ${golden_b})
bump_cut_edges(0 1 first)
bump_cut_edges(1 -1 second)
list(REMOVE_AT lines 0 1)
list(INSERT lines 0 "${first}" "${second}")
expect_stream_diff(cancel "${lines}")

set(lines ${golden_b})
list(GET lines 2 line)
string(REPLACE "\"counters\":{\"" "\"counters\":{\"aa.only_in_b\":1,\""
       line "${line}")
list(REMOVE_AT lines 2)
list(INSERT lines 2 "${line}")
expect_stream_diff(only_b "${lines}")

set(lines "")
foreach(line IN LISTS golden_b)
  if(NOT line MATCHES "\"scheduler\":\"Borg\"")
    list(APPEND lines "${line}")
  endif()
endforeach()
expect_stream_diff(no_borg "${lines}")

set(lines ${golden_b})
list(REMOVE_AT lines ${last})
expect_stream_diff(truncated "${lines}")

set(lines ${golden_b})
list(GET lines 1 line)
string(REPLACE "gl.epoch.v1" "gl.epoch.v0" line "${line}")
list(REMOVE_AT lines 1)
list(INSERT lines 1 "${line}")
expect_stream_diff(no_schema "${lines}")

set(lines ${golden_b})
list(GET lines ${last} line)
string(FIND "${line}" ",\"timings\":" at)
string(SUBSTRING "${line}" 0 ${at} line)
list(REMOVE_AT lines ${last})
list(APPEND lines "${line}}")
expect_stream_diff(no_tail "${lines}")

# Two traces of one root span and two children; only epoch.tct's CPU grows.
function(write_trace path tct_cpu)
  math(EXPR root_cpu "${tct_cpu} + 750")
  file(WRITE "${path}" "{\"traceEvents\":[\n"
    "{\"name\":\"runner.epoch\",\"ph\":\"X\",\"ts\":0,\"dur\":5000,"
    "\"pid\":1,\"tid\":1,\"cpu\":${root_cpu}},\n"
    "{\"name\":\"epoch.tct\",\"ph\":\"X\",\"ts\":100,\"dur\":2000,"
    "\"pid\":1,\"tid\":1,\"cpu\":${tct_cpu}},\n"
    "{\"name\":\"partition.split\",\"ph\":\"X\",\"ts\":3000,\"dur\":400,"
    "\"pid\":1,\"tid\":1,\"cpu\":250}\n]}\n")
endfunction()
write_trace("${WORK}/trace_a.json" 150)
write_trace("${WORK}/trace_b.json" 1650)
expect_diff(traces "${WORK}/trace_a.json" "${WORK}/trace_b.json" 0
            "^moved most: epoch.tct self CPU 0.150 ms in A -> 1.650 ms in B")
expect_diff(stream_vs_trace "${golden_a}" "${WORK}/trace_a.json" 2 ".*")

file(WRITE "${WORK}/bench.json"
     "[{\"name\":\"bench\",\"threads\":1,\"median_wall_ms\":10.0}]\n")
expect_diff(bench_json "${WORK}/bench.json" "${WORK}/bench.json" 2 ".*")

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} gl_report diff case(s) failed")
endif()
