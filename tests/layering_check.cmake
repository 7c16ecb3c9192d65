# Layering.NoCoreIncludesBenchRunner: the experiment runner lives in
# src/run/, so no file under src/ outside src/bench_support/ may include
# the bench_support forwarding header for it.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/layering_check.cmake

if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "layering_check: SRC_DIR='${SRC_DIR}' is not a directory")
endif()

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
  "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.h")
set(include_re "#[ \t]*include[ \t]*[<\"]bench_support/run_experiment")
set(offenders "")
foreach(f IN LISTS sources)
  if(f MATCHES "^bench_support/")
    continue()
  endif()
  file(STRINGS "${SRC_DIR}/${f}" hits REGEX "^[ \t]*${include_re}\\.hpp")
  if(hits)
    list(APPEND offenders "src/${f}")
  endif()
endforeach()

list(LENGTH sources checked)
if(offenders)
  list(JOIN offenders "\n  " lines)
  message(FATAL_ERROR
    "these files include bench_support/run_experiment.hpp; include "
    "run/run_experiment.hpp instead:\n  ${lines}")
endif()
message(STATUS "layering_check: checked ${checked} files under src/; "
               "none outside bench_support/ includes the runner header")
