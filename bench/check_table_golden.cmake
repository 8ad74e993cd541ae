# Runs one experiment binary in --quick config and compares the tables it
# prints (all of stdout but the last line, the JSON record) byte for byte
# with a checked-in golden file.
#
#   cmake -DBINARY=<exp binary> -DGOLDEN=<golden .txt> -P check_table_golden.cmake
execute_process(COMMAND ${BINARY} --quick
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} --quick failed: ${rc}")
endif()
string(REGEX REPLACE "[^\n]*\n$" "" tables "${out}")
file(READ "${GOLDEN}" expected)
if(NOT tables STREQUAL expected)
  message(FATAL_ERROR "tables differ from ${GOLDEN}; this run printed:\n"
                      "${tables}")
endif()
