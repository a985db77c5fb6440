# One bench_paper check for ctest (bench/CMakeLists.txt):
#   cmake -DBIN=<bench_paper> [-DENV=VAR=value] [-DARGS=<id>] -DEXPECT=<what>
#     -P check_bench_paper.cmake
# EXPECT=grid: exit 0, and each figure's title line printed exactly once.
# EXPECT=unknown-id: exit 2, naming the id and listing the valid ones.
# EXPECT=<VAR>: exit 2 with a message naming VAR, and nothing on stdout.
execute_process(COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${BIN} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

function(fail what)
  message(FATAL_ERROR "${what}\nexit: ${rc}\nstderr:\n${err}")
endfunction()

if(EXPECT STREQUAL "grid")
  if(NOT rc EQUAL 0)
    fail("bench_paper failed")
  endif()
  foreach(title "Table 2:" "Figure 2:" "Figure 3:" "Table 3:" "Figure 5:"
          "Figure 6:" "Figure 7:" "Figure 8:" "Figure 9:" "Figure 10a:"
          "Figure 11:" "Figure 12:" "Figure 13:" "Figure 14:" "Table 4:"
          "Table 5:" "Figure 15:" "Figure 16:" "Figure 17:"
          "Statistical significance of" "Ablation:")
    string(REGEX MATCHALL "(^|\n)${title}" lines "${out}")
    list(LENGTH lines count)
    if(NOT count EQUAL 1)
      fail("'${title}' title line printed ${count} times, want 1")
    endif()
  endforeach()
elseif(EXPECT STREQUAL "unknown-id")
  if(NOT rc EQUAL 2 OR
     NOT err MATCHES "unknown figure id '${ARGS}'; valid ids: table2 fig2 ")
    fail("an unknown id must exit 2, naming it and listing the valid ids")
  endif()
else()
  if(NOT rc EQUAL 2 OR NOT err MATCHES "error: ${EXPECT}=" OR
     NOT out STREQUAL "")
    fail("${ENV} must exit 2 before printing anything, naming ${EXPECT}")
  endif()
endif()
