# Runs the slmob binary named by -DSLMOB=... with the arguments after `--`
# and fails unless it exits with status 2 and prints the usage text:
#
#   cmake -DSLMOB=path/to/slmob -P cli_expect_usage.cmake -- analyze t.slt --threads -1
set(args "")
set(collect OFF)
foreach(i RANGE 1 ${CMAKE_ARGC})
  if(collect)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND "${SLMOB}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "slmob ${args}: expected exit 2 with usage, got '${rc}'\n${out}${err}")
endif()
