# Asserts that the tool at TOOL prints its usage text to stderr and
# exits with status 2 on each of FLAGS (default: --help and an unknown
# flag).
#
#   cmake -DTOOL=path/to/tool [-DFLAGS=--a=x;--b=y] -P expect_usage_exit.cmake
if(NOT DEFINED FLAGS)
  set(FLAGS --help --no-such-flag)
endif()
foreach(flag ${FLAGS})
  execute_process(COMMAND ${TOOL} ${flag}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${TOOL} ${flag}: exit status ${rc}, expected 2")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${TOOL} ${flag}: no usage text on stderr:\n${err}")
  endif()
endforeach()
