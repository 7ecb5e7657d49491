# CTest driver for `vada_explain --goal`: on a left-recursive program
# the tool exits 0 and reports the magic-set rewrite Query applies, and
# the removed --optimize flag is rejected with the usage exit code 2.
#
#   cmake -DEXPLAIN=<vada_explain> -DPROGRAM=<file.dlog> -P explain_goal_test.cmake

execute_process(COMMAND ${EXPLAIN} --goal=q ${PROGRAM}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vada_explain --goal=q exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "rewrite: [^\n]*magic: [0-9]+ specialized rule")
  message(FATAL_ERROR "no magic-set summary in:\n${out}")
endif()

execute_process(COMMAND ${EXPLAIN} --optimize --goal=q ${PROGRAM}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "vada_explain --optimize exited ${rc}, expected 2")
endif()
