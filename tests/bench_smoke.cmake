# Runs one bench binary in an empty directory and checks that it exits 0,
# that its stdout matches the EXPECT regex (when given), and that it leaves
# no file behind: the benches print their tables, and only the table
# regenerators that say so write a CSV.
#
#   cmake -DBENCH=path/to/bench_x "-DARGS=24 --jobs 1" -DWORKDIR=dir
#         "-DEXPECT=regex" -P tests/bench_smoke.cmake
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}:\n${out}\n${err}")
endif()

if(EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match /${EXPECT}/:\n${out}")
endif()

file(GLOB left_behind "${WORKDIR}/*")
if(left_behind)
  message(FATAL_ERROR "${BENCH} left files behind: ${left_behind}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
message(STATUS "${BENCH} ${ARGS}: exit 0, output as expected, no files")
