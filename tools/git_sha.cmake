# Writes OUT (a header defining FLOWSCHED_GIT_SHA) from
# `git describe --always --dirty` in SOURCE_DIR, or "unknown" outside a git
# checkout. The header is rewritten only when its text changes, so a build
# after no commit recompiles nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUT=<header> -P tools/git_sha.cmake
execute_process(
  COMMAND git describe --always --dirty
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(text "#define FLOWSCHED_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
