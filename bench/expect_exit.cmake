# Runs PROG with the space-separated ARGS and passes only when it exits with
# EXIT and its stdout or stderr matches REGEX:
#   cmake -DPROG=<exe> "-DARGS=k=4 sim_time=500" -DEXIT=64 -DREGEX=<re> \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXIT}:\n${out}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}")
endif()
