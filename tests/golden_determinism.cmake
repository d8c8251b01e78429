# Run an experiment binary at --jobs=1 and --jobs=4 and fail unless the
# captures are byte-identical: replication fan-out must not change a byte
# (DESIGN.md §5.5). Invoked by ctest as
#   cmake -DBIN=<exe> -DWORK_DIR=<dir> [-DTRACE=ON] -P golden_determinism.cmake
#
# With -DTRACE=ON each run also writes `--trace=<dir>/jobs<N>.trace.jsonl`
# and the trace exports must be byte-identical too: the trace is keyed by
# sim time and stable ids, so the worker count may not change a single byte
# of it. (--metrics is deliberately not compared: its phase.* wall-clock
# timings legitimately differ between runs.)
if(NOT DEFINED BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "golden_determinism.cmake needs -DBIN=... -DWORK_DIR=...")
endif()

set(variants 1 4)

file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(v IN LISTS variants)
  set(run_args --jobs=${v})
  if(TRACE)
    list(APPEND run_args --trace=${WORK_DIR}/jobs${v}.trace.jsonl)
  endif()
  execute_process(
    COMMAND "${BIN}" ${run_args}
    OUTPUT_FILE "${WORK_DIR}/jobs${v}.out"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${run_args} exited with ${rc}")
  endif()
endforeach()

list(GET variants 0 ref)
foreach(v IN LISTS variants)
  if(v EQUAL ${ref})
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/jobs${ref}.out" "${WORK_DIR}/jobs${v}.out"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "stdout differs between --jobs=${ref} and --jobs=${v} for "
            "${BIN} (see ${WORK_DIR})")
  endif()
  if(TRACE)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${WORK_DIR}/jobs${ref}.trace.jsonl"
              "${WORK_DIR}/jobs${v}.trace.jsonl"
      RESULT_VARIABLE trace_diff)
    if(NOT trace_diff EQUAL 0)
      message(FATAL_ERROR
              "--trace output differs between --jobs=${ref} and "
              "--jobs=${v} for ${BIN} (see ${WORK_DIR})")
    endif()
  endif()
endforeach()
message(STATUS "byte-identical output across --jobs={${variants}}")
