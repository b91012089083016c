# Script mode (cmake -P): run each example binary and compare their
# combined stdout with the committed transcript. Driven by the
# examples_output ctest; expects EXAMPLES_DIR, EXAMPLES (comma-separated
# binary names, in transcript order), EXPECTED and OUT definitions.
foreach(var EXAMPLES_DIR EXAMPLES EXPECTED OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_examples.cmake: ${var} not set")
    endif()
endforeach()

string(REPLACE "," ";" names "${EXAMPLES}")
set(actual "")
foreach(name ${names})
    execute_process(
        COMMAND ${EXAMPLES_DIR}/${name}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    string(APPEND actual
        "===== build/examples/${name} =====\n${out}(exit ${rc})\n\n")
endforeach()

file(WRITE ${OUT} "${actual}")
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
        "example output differs from ${EXPECTED}; see ${OUT}")
endif()
