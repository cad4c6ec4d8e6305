# Runs a command and passes only if it exits with exactly the expected
# status. CTest's WILL_FAIL accepts any non-zero exit, so it cannot tell a
# detected defect (exit 1) from a usage error (exit 2).
#
#   cmake -DEXPECT=<status> -P expect_exit.cmake -- <program> [args...]
#
# The command's output passes through; a mismatch reports both statuses.
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_exit.cmake: pass -DEXPECT=<exit status>")
endif()

# CMAKE_ARGV<i> holds cmake's own command line; the command follows the
# first `--`, which also keeps cmake from parsing the command's options.
set(command)
set(separator_seen FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(separator_seen)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(separator_seen TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit status ${EXPECT}, got ${status}")
endif()
