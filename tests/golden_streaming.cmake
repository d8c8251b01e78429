# Streaming-vs-batch equivalence, end to end: the batch quarterly pass
# (default), classify-on-advance streaming (--streaming), and streaming on
# top of the spillable columnar segment log (--streaming --segment-cap=N
# --spill-dir=...) must print byte-identical stdout (DESIGN.md §5.9).
# Invoked by ctest as
#   cmake -DBIN=<exe> -DWORK_DIR=<dir> -P golden_streaming.cmake
if(NOT DEFINED BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "golden_streaming.cmake needs -DBIN=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/spill")

set(variants batch stream spill)
# Every variant audits its store at exit, so the invariant line (and its
# check count) must match across storage modes too.
set(args_batch --check-invariants)
set(args_stream --streaming --check-invariants)
# A small cap relative to the two-year record volume, so many segments
# seal and the resident budget forces real spills + mmap reads.
set(args_spill --streaming --segment-cap=4096 --spill-dir=${WORK_DIR}/spill
    --check-invariants)

foreach(v IN LISTS variants)
  execute_process(
    COMMAND "${BIN}" ${args_${v}}
    OUTPUT_FILE "${WORK_DIR}/${v}.out"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${args_${v}} exited with ${rc}")
  endif()
endforeach()

foreach(v stream spill)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/batch.out" "${WORK_DIR}/${v}.out"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "stdout differs between the batch pass and '${args_${v}}' for "
            "${BIN} (see ${WORK_DIR})")
  endif()
endforeach()
message(STATUS "byte-identical output across batch/streaming/spill")
