# Seed-replay gate with a pinned digest (DESIGN.md §8): runs
# `gl_report replay` with ARGS (space-separated) and passes only when it
# exits 0 and reports Goldilocks' final digest as DIGEST. A replay runs the
# same code twice, so a fault that moves both runs alike (a reused
# coarsening that does not match the graph, say) still replays
# bit-identically; the pinned digest catches it.
#
#   cmake -DGL_REPORT=<gl_report> "-DARGS=--epochs=12" -DDIGEST=<hex> \
#         -P tests/replay_digest_test.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${GL_REPORT}" replay ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gl_report replay ${ARGS} exited ${rc}")
endif()
if(NOT out MATCHES
   "\ngoldilocks +OK: [0-9]+ epochs bit-identical, final digest ${DIGEST}\n")
  message(FATAL_ERROR "Goldilocks' final digest is not ${DIGEST}")
endif()
