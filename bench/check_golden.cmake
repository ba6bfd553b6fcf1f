# Runs one bench binary and fails unless its stdout matches a golden file
# byte for byte. Used by the `repro` ctest label (bench/CMakeLists.txt):
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file>
#         [-DJSON_GOLDEN=<file> -DJSON_ACTUAL=<file>] -P check_golden.cmake
# With JSON_GOLDEN, the bench must also write JSON_ACTUAL (the JSON it
# writes at its default path, in the working directory) equal to
# JSON_GOLDEN byte for byte. On a mismatch the bench's output is left in
# ACTUAL (or JSON_ACTUAL) for diffing. Never regenerate a golden file to
# make this pass: a moved number is a finding.

if(DEFINED JSON_ACTUAL)
  file(REMOVE "${JSON_ACTUAL}")  # a stale file must not pass
endif()
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
if(DEFINED JSON_GOLDEN)
  if(NOT EXISTS "${JSON_ACTUAL}")
    message(FATAL_ERROR "${BENCH} wrote no ${JSON_ACTUAL}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${JSON_GOLDEN}" "${JSON_ACTUAL}"
                  RESULT_VARIABLE json_rc)
  if(NOT json_rc EQUAL 0)
    message(FATAL_ERROR
      "${JSON_ACTUAL} differs from ${JSON_GOLDEN}\n"
      "see: diff ${JSON_GOLDEN} ${JSON_ACTUAL}")
  endif()
endif()
