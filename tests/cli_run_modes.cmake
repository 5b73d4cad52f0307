# Runs `slmob run` four more ways that must each write, byte for byte, the
# trace of the SlmobCli.RunWritesFixtureTrace fixture (--land dance
# --hours 0.1 --seed 1): journaled, checkpointed, resumed from that
# checkpoint directory, and as the dance shard of a supervised two-land run.
#
#   cmake -DSLMOB=path/to/slmob -DFIXTURE=cli_fixture.sltj -DWORK=scratch/dir \
#         -P cli_run_modes.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(dance --land dance --hours 0.1 --seed 1)

function(run_and_compare trace)
  execute_process(COMMAND "${SLMOB}" run ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "slmob run ${ARGN}: exit ${rc}\n${out}${err}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${FIXTURE}" "${trace}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "slmob run ${ARGN}: ${trace} differs from ${FIXTURE}\n${out}")
  endif()
endfunction()

run_and_compare("${WORK}/journal.sltj"
  ${dance} --journal "${WORK}/run.sltj" --out "${WORK}/journal.sltj")
# 120 s intervals leave checkpoints at 120 s and 240 s of the 360 s run, so
# the resume below replays to 240 s and captures the last two minutes again.
run_and_compare("${WORK}/checkpoint.sltj"
  ${dance} --checkpoint "${WORK}/ck" --checkpoint-every 120 --out "${WORK}/checkpoint.sltj")
run_and_compare("${WORK}/resume.sltj" --resume "${WORK}/ck" --out "${WORK}/resume.sltj")
run_and_compare("${WORK}/x-dance.sltj"
  --land dance,isle --hours 0.1 --seed 1 --supervise --checkpoint "${WORK}/ck2"
  --out "${WORK}/x-{land}.sltj")
