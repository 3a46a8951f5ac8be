# Outside input that once crashed narada-cli must fail like any other bad
# input: a nonzero exit code and a message on stderr, never a signal.
#
#   report: `triage ingest` of a run report nesting 200,000 arrays, past
#           the JSON parser's nesting bound.
#   replay: `detect --replay` of a schedule trace asking for 10^12 picks,
#           more than a replay's step budget can consume.
#
# Usage: cmake -DCLI=<narada-cli> -DWORK=<scratch dir> -DCASE=<report|replay>
#              -P cli_hostile_input.cmake

file(MAKE_DIRECTORY ${WORK})
if(CASE STREQUAL "report")
  string(REPEAT "[" 200000 Open)
  string(REPEAT "]" 200000 Close)
  file(WRITE ${WORK}/deep.report.json "${Open}${Close}")
  file(REMOVE ${WORK}/deep.racedb)
  set(Command ${CLI} triage ingest --db ${WORK}/deep.racedb
              ${WORK}/deep.report.json)
  set(Expected "run report is not valid JSON")
elseif(CASE STREQUAL "replay")
  file(WRITE ${WORK}/oversized.trace
       "narada.schedule/v1\ntest narada_000\npicks 0x1\npicks 2x1000000000000\n")
  set(Command ${CLI} detect corpus:C9 --replay ${WORK}/oversized.trace)
  set(Expected "schedule trace line 4: more than 6400000 picks")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

execute_process(COMMAND ${Command}
                OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Rc)
# A signal makes Rc a description such as "Segmentation fault".
if(NOT Rc MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "expected a nonzero exit code, got '${Rc}':\n${Err}")
endif()
string(FIND "${Err}" "${Expected}" Found)
if(Found EQUAL -1)
  message(FATAL_ERROR "expected '${Expected}' on stderr, got:\n${Err}")
endif()
