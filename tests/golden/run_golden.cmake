# Golden out-of-core end-to-end check, run by ctest (see CMakeLists.txt):
# executes the subsel CLI against the COMMITTED binary fixture
# (tests/golden/toy600[.graph]) with the adjacency served from disk through
# the sharded cache, and compares the selected subset byte-for-byte against
# the committed expectation. Catches silent drift in the on-disk format, the
# cache serving layer, and the solver's selections in one shot. The
# library-level twin (integration/end_to_end_test.cpp) additionally checks
# the objective value.
#
# Required -D variables: SUBSEL_CLI, GOLDEN_DIR, WORK_DIR.

file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${SUBSEL_CLI}" select
          "--data=${GOLDEN_DIR}/toy600" --k=60 --solver=distributed-greedy
          --machines=6 --rounds=4 --seed=23
          --disk --cache-blocks=8 --block-edges=256 --disk-shards=4
          --prefetch-depth=2
          "--out=${WORK_DIR}/got_subset.ids"
          "--report=${WORK_DIR}/got_report.json"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "subsel select --disk failed (${exit_code}):\n${stdout}\n${stderr}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/got_subset.ids" "${GOLDEN_DIR}/expected_subset.ids"
  RESULT_VARIABLE diff_code)
if(NOT diff_code EQUAL 0)
  file(READ "${WORK_DIR}/got_subset.ids" got)
  message(FATAL_ERROR "out-of-core selection drifted from the committed golden"
                      " subset (tests/golden/expected_subset.ids).\nGot:\n${got}")
endif()

# The report must identify the run and carry the out-of-core cache section.
file(READ "${WORK_DIR}/got_report.json" report)
foreach(needle "subsel.selection_report.v1" "\"disk_cache\"" "\"num_shards\":4")
  string(FIND "${report}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "report is missing ${needle}:\n${report}")
  endif()
endforeach()

# A corrupted graph file must fail loudly with a clear message, exit != 0.
file(WRITE "${WORK_DIR}/corrupt.graph" "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX")
file(COPY "${GOLDEN_DIR}/toy600" DESTINATION "${WORK_DIR}")
file(REMOVE "${WORK_DIR}/corrupt")
file(RENAME "${WORK_DIR}/toy600" "${WORK_DIR}/corrupt")
execute_process(
  COMMAND "${SUBSEL_CLI}" select "--data=${WORK_DIR}/corrupt" --k=60 --disk
          "--out=${WORK_DIR}/corrupt.ids"
  RESULT_VARIABLE corrupt_code
  OUTPUT_VARIABLE corrupt_out
  ERROR_VARIABLE corrupt_err)
if(corrupt_code EQUAL 0)
  message(FATAL_ERROR "select --disk accepted a corrupt graph file")
endif()
string(FIND "${corrupt_err}" "not a SimilarityGraph file" at)
if(at EQUAL -1)
  message(FATAL_ERROR "corrupt-graph failure lacks a clear message: ${corrupt_err}")
endif()

# A flag the subcommand never reads — here the retired --engine spelling —
# must be a usage error (exit 1) naming the flag, never a silent run with
# defaults.
execute_process(
  COMMAND "${SUBSEL_CLI}" select "--data=${GOLDEN_DIR}/toy600" --k=60
          --engine=dataflow "--out=${WORK_DIR}/unused_flag.ids"
  RESULT_VARIABLE unused_code
  OUTPUT_VARIABLE unused_out
  ERROR_VARIABLE unused_err)
if(NOT unused_code EQUAL 1)
  message(FATAL_ERROR "select --engine=dataflow exited ${unused_code}, not 1:\n${unused_err}")
endif()
string(FIND "${unused_err}" "--engine=dataflow is not used by `subsel select`" at)
if(at EQUAL -1)
  message(FATAL_ERROR "unused-flag failure does not name the flag: ${unused_err}")
endif()
if(EXISTS "${WORK_DIR}/unused_flag.ids")
  message(FATAL_ERROR "select ran despite an unused flag")
endif()

message(STATUS "golden out-of-core fixture: selections identical, corrupt file"
               " and unused flag rejected")
