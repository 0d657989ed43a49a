# Runs EXE with ARGS (space-separated) and passes only if it exits with
# status 1 and prints its usage text:
#   cmake -DEXE=<binary> "-DARGS=<args>" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${out}${err}")
endif()
if(NOT out MATCHES "usage: ")
  message(FATAL_ERROR "usage text missing from stdout:\n${out}${err}")
endif()
