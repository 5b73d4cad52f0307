# A single-land `slmob run --stats-csv` (README's overload example, shortened)
# exits 0 and writes the per-shard stats CSV with its header.
#
#   cmake -DSLMOB=path/to/slmob -DWORK=scratch/dir -P cli_stats_csv.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${SLMOB}" run --land isle --hours 0.1 --seed 42 --faults overload
                        --stats-csv "${WORK}/overload.csv" --out "${WORK}/isle_surge.sltj"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "slmob run --stats-csv: exit ${rc}\n${out}${err}")
endif()
file(STRINGS "${WORK}/overload.csv" rows)
list(LENGTH rows n)
list(GET rows 0 header)
if(NOT n EQUAL 2 OR NOT header MATCHES "^shard,land,seed,snapshots,")
  message(FATAL_ERROR "unexpected stats CSV (${n} rows):\n${rows}")
endif()
