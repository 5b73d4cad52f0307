# `slmob analyze` of the SlmobCli.RunWritesFixtureTrace fixture at the
# default ranges (10 m and 80 m) prints the same report, byte for byte, at
# one thread and at four.
#
#   cmake -DSLMOB=path/to/slmob -DFIXTURE=cli_fixture.sltj -P cli_analyze_threads.cmake
function(analyze threads into)
  execute_process(COMMAND "${SLMOB}" analyze "${FIXTURE}" --threads ${threads}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "slmob analyze --threads ${threads}: exit ${rc}\n${out}${err}")
  endif()
  set(${into} "${out}" PARENT_SCOPE)
endfunction()

analyze(1 one)
analyze(4 four)
if(NOT one MATCHES "r=10m: .*r=80m: .*zones: ")
  message(FATAL_ERROR "slmob analyze --threads 1: no 10 m and 80 m report\n${one}")
endif()
if(NOT one STREQUAL four)
  message(FATAL_ERROR "slmob analyze: --threads 1 and --threads 4 differ\n"
                      "--threads 1:\n${one}--threads 4:\n${four}")
endif()
