# Runs one hlshc_paper table in an empty directory and checks how it ends:
#
#   - EXIT (default 0) is the exit code it must return. A nonzero EXIT is a
#     rejected command line: stdout must be empty and stderr must carry the
#     usage text.
#   - EXPECT, when given, is a regex its stdout must match.
#   - GOLDEN, when given, is a directory holding the expected stdout
#     (stdout.txt) and every file the table writes, byte for byte. A mismatch
#     names the first differing line and the command that regenerates it.
#   - Without GOLDEN the table must leave no file behind.
#
#   cmake -DBENCH=path/to/hlshc_paper "-DARGS=fault 24 --jobs 1" -DWORKDIR=dir
#         ["-DEXPECT=regex"] [-DEXIT=2] [-DGOLDEN=tests/golden/x] -P tests/bench_smoke.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT EXIT)
  set(EXIT 0)
endif()
set(cmd "${BENCH} ${ARGS}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${cmd} exited with ${rc}, expected ${EXIT}:\n${out}\n${err}")
endif()
if(NOT EXIT EQUAL 0 AND (NOT "${out}" STREQUAL "" OR NOT err MATCHES "usage: "))
  message(FATAL_ERROR "${cmd} should print only the usage, to stderr:\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match /${EXPECT}/:\n${out}")
endif()

# Fails naming the first line where `actual` departs from the golden `file`.
function(compare_golden file actual)
  file(READ "${GOLDEN}/${file}" expected)
  if("${expected}" STREQUAL "${actual}")
    return()
  endif()
  set(line 0)
  set(expected_done FALSE)
  set(actual_done FALSE)
  while("${expected_line}" STREQUAL "${actual_line}" AND
        NOT (expected_done AND actual_done))
    math(EXPR line "${line} + 1")
    foreach(side expected actual)
      string(FIND "${${side}}" "\n" nl)
      if(${side}_done)
        set(${side}_line "<end of output>")
      elseif(nl EQUAL -1)
        set(${side}_line "${${side}}")
        set(${side}_done TRUE)
      else()
        string(SUBSTRING "${${side}}" 0 ${nl} ${side}_line)
        math(EXPR nl "${nl} + 1")
        string(SUBSTRING "${${side}}" ${nl} -1 ${side})
      endif()
    endforeach()
  endwhile()
  message(FATAL_ERROR
          "${cmd}: ${file} differs from ${GOLDEN}/${file} at line ${line}\n"
          "  golden: ${expected_line}\n"
          "  actual: ${actual_line}\n"
          "If the change is intended, regenerate the golden files with\n"
          "  cd ${GOLDEN} && ${cmd} > stdout.txt")
endfunction()

file(GLOB written RELATIVE "${WORKDIR}" "${WORKDIR}/*")
if(GOLDEN)
  compare_golden(stdout.txt "${out}")
  file(GLOB golden RELATIVE "${GOLDEN}" "${GOLDEN}/*")
  list(REMOVE_ITEM golden stdout.txt)
  if(NOT "${golden}" STREQUAL "${written}")
    message(FATAL_ERROR "${cmd} wrote '${written}', golden has '${golden}'")
  endif()
  foreach(file ${written})
    file(READ "${WORKDIR}/${file}" content)
    compare_golden(${file} "${content}")
  endforeach()
elseif(written)
  message(FATAL_ERROR "${cmd} left files behind: ${written}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
message(STATUS "${cmd}: exit ${rc}, output as expected")
