# Asserts that the tool at TOOL exits with status STATUS (default 2)
# and prints text matching the regex PATTERN (default "usage: ") to
# stderr on each of FLAGS (default: --help and an unknown flag).  ARGS
# (default none) precede each flag on the command line; with
# QUIET_STDOUT set, the tool must also print nothing to stdout.
#
#   cmake -DTOOL=path/to/tool [-DFLAGS=--a=x;--b=y] [-DARGS=--c]
#         [-DSTATUS=1] [-DPATTERN=regex] [-DQUIET_STDOUT=1]
#         -P expect_usage_exit.cmake
if(NOT DEFINED FLAGS)
  set(FLAGS --help --no-such-flag)
endif()
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()
if(NOT DEFINED PATTERN)
  set(PATTERN "usage: ")
endif()
foreach(flag ${FLAGS})
  execute_process(COMMAND ${TOOL} ${ARGS} ${flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL STATUS)
    message(FATAL_ERROR "${TOOL} ${flag}: exit status ${rc}, expected ${STATUS}")
  endif()
  if(NOT err MATCHES "${PATTERN}")
    message(FATAL_ERROR "${TOOL} ${flag}: stderr does not match '${PATTERN}':\n${err}")
  endif()
  if(QUIET_STDOUT AND NOT out STREQUAL "")
    message(FATAL_ERROR "${TOOL} ${flag}: expected no stdout, got:\n${out}")
  endif()
endforeach()
