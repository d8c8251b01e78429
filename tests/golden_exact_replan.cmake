# Run an experiment binary with the incremental plan cache (the default)
# and with --exact-replan (from-scratch reference planner) and fail unless
# the two stdout captures are byte-identical. Invoked by ctest as
#   cmake -DBIN=<exe> -DWORK_DIR=<dir> -P golden_exact_replan.cmake
# This is the end-to-end half of the plan-cache equivalence contract
# (DESIGN.md §5.6): caching is a pure performance optimization, so every
# table an experiment prints — modality shares, job counts, NU totals —
# must come out identical either way.
if(NOT DEFINED BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "golden_exact_replan.cmake needs -DBIN=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(mode IN ITEMS cached exact)
  set(run_args)
  if(mode STREQUAL "exact")
    set(run_args --exact-replan)
  endif()
  execute_process(
    COMMAND "${BIN}" ${run_args}
    OUTPUT_FILE "${WORK_DIR}/${mode}.out"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} (${mode}) exited with ${rc}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/cached.out" "${WORK_DIR}/exact.out"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "stdout differs between the incremental plan cache and "
          "--exact-replan for ${BIN} (see ${WORK_DIR})")
endif()
message(STATUS "byte-identical stdout with and without --exact-replan")
