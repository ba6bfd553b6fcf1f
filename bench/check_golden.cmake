# Runs one bench binary and fails unless its stdout matches a golden file
# byte for byte. Used by the `repro` ctest label (bench/CMakeLists.txt):
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
# On a mismatch the bench's output is left in ACTUAL for diffing. Never
# regenerate a golden file to make this pass: a moved number is a finding.

execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(WRITE "${ACTUAL}" "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "stdout of ${BENCH} differs from ${GOLDEN}\n"
    "see: diff ${GOLDEN} ${ACTUAL}\n"
    "--- expected ---\n${expected}--- actual ---\n${actual}")
endif()
