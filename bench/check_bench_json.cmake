# One JSON-writing bench for ctest (bench/CMakeLists.txt):
#   cmake -DBIN=<bench> -DOUT=<scratch json> -DGOLDEN=<committed json>
#     -P check_bench_json.cmake
# The bench must exit 0 and write OUT byte for byte equal to GOLDEN, the
# BENCH_*.json committed at the repository root.
execute_process(COMMAND ${BIN} ${OUT} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} failed\nexit: ${rc}\nstderr:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
file(REMOVE ${OUT})
