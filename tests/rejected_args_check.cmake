# Argument rejection of a command-line tool (cmake -P, no binary of its
# own): run TOOL with ARGS in an empty WORK_DIR and require a nonzero
# exit, the usage text on stderr, and no file written.
#
#   cmake -DTOOL=<exe> "-DARGS=--json" -DWORK_DIR=<dir> \
#         -P tests/rejected_args_check.cmake

if(NOT TOOL OR NOT WORK_DIR)
  message(FATAL_ERROR "rejected_args_check: TOOL and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 60)

if(rc EQUAL 0)
  message(FATAL_ERROR "'${ARGS}' was accepted (exit 0)")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "'${ARGS}' exited '${rc}' without the usage:\n${err}")
endif()
file(GLOB_RECURSE written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "'${ARGS}' wrote files: ${written}")
endif()
