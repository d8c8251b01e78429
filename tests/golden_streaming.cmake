# Streaming-vs-batch equivalence, end to end: the batch quarterly pass
# (default), the batch pass on the spillable columnar segment log
# (--segment-cap=N --spill-dir=...), classify-on-advance streaming
# (--streaming), and streaming on top of the segment log must print
# byte-identical stdout (DESIGN.md §5.9).
# Invoked by ctest as
#   cmake -DBIN=<exe> -DWORK_DIR=<dir> -P golden_streaming.cmake
if(NOT DEFINED BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "golden_streaming.cmake needs -DBIN=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/spill")
file(REMOVE_RECURSE "${WORK_DIR}/batch-spill")
file(MAKE_DIRECTORY "${WORK_DIR}/batch-spill")

set(variants batch batchspill stream spill)
# Every variant audits its store at exit, so the invariant line (and its
# check count) must match across storage modes too.
set(args_batch --check-invariants)
set(args_batchspill --segment-cap=4096 --spill-dir=${WORK_DIR}/batch-spill
    --check-invariants)
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

foreach(v batchspill stream spill)
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
# The batch pass must really have stored its records out of core.
file(GLOB batch_spilled "${WORK_DIR}/batch-spill/*")
if(NOT batch_spilled)
  message(FATAL_ERROR "'${args_batchspill}' wrote no segment file")
endif()
message(STATUS
        "byte-identical output across batch/batch-spill/streaming/spill")
