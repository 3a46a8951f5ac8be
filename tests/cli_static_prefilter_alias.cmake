# `--static-prefilter` is the deprecated spelling of `--static-verdicts`:
# the same detect run must print the same stdout, with verdict annotations,
# and the old spelling must say so in exactly one stderr line.
#
# Usage: cmake -DCLI=<narada-cli> -DINPUT=<corpus:Cx> -P cli_static_prefilter_alias.cmake

execute_process(COMMAND ${CLI} detect ${INPUT} --static-verdicts
                OUTPUT_VARIABLE NewOut ERROR_VARIABLE NewErr
                RESULT_VARIABLE NewRc)
execute_process(COMMAND ${CLI} detect ${INPUT} --static-prefilter
                OUTPUT_VARIABLE OldOut ERROR_VARIABLE OldErr
                RESULT_VARIABLE OldRc)
if(NOT NewRc EQUAL 0 OR NOT OldRc EQUAL 0)
  message(FATAL_ERROR "detect exited ${NewRc} (--static-verdicts) and "
                      "${OldRc} (--static-prefilter)")
endif()
if(NOT NewOut STREQUAL OldOut)
  message(FATAL_ERROR "--static-prefilter and --static-verdicts print "
                      "different stdout")
endif()
string(FIND "${NewOut}" "[static: " Annotated)
if(Annotated EQUAL -1)
  message(FATAL_ERROR "no static verdict annotation in the detect output")
endif()
string(REGEX MATCHALL "--static-prefilter is deprecated" Warnings "${OldErr}")
list(LENGTH Warnings NumWarnings)
if(NOT NumWarnings EQUAL 1)
  message(FATAL_ERROR "expected one deprecation line, got ${NumWarnings}:\n"
                      "${OldErr}")
endif()
string(FIND "${NewErr}" "deprecated" NewWarns)
if(NOT NewWarns EQUAL -1)
  message(FATAL_ERROR "--static-verdicts printed a deprecation line")
endif()
