# Runs EXE without arguments, writes its stdout to ACTUAL and fails unless
# EXE exits 0 and ACTUAL equals EXPECTED byte for byte. Usage:
#   cmake -DEXE=<bin> -DEXPECTED=<file> -DACTUAL=<file> -P expect_stdout.cmake
execute_process(COMMAND ${EXE} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${exit_code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "${ACTUAL} differs from ${EXPECTED}")
endif()
