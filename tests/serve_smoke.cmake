# Pipes a request file through the hlshc_serve daemon and checks the line
# protocol end to end: one response per request line, in order, each echoing
# its request's id; no internal_error; and the repeated compile and evaluate
# (ids 4 and 7) answered from the cache.
#
#   cmake -DSERVE=path/to/hlshc_serve -DREQUESTS=tests/data/serve_requests.jsonl
#         -P tests/serve_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(cached_ids 4 7)

# One worker: requests run in file order, so the repeats are cache hits.
execute_process(COMMAND "${SERVE}" --jobs 1
                INPUT_FILE "${REQUESTS}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hlshc_serve exited with ${rc}: ${err}")
endif()

file(STRINGS "${REQUESTS}" requests)
string(REGEX REPLACE "\n$" "" out "${out}")
string(REPLACE "\n" ";" responses "${out}")
list(LENGTH requests n_requests)
list(LENGTH responses n_responses)
if(NOT n_requests EQUAL n_responses)
  message(FATAL_ERROR
          "${n_requests} requests but ${n_responses} responses:\n${out}")
endif()

math(EXPR last "${n_requests} - 1")
foreach(i RANGE ${last})
  list(GET requests ${i} request)
  list(GET responses ${i} response)
  string(JSON want_id GET "${request}" id)
  string(JSON got_id ERROR_VARIABLE no_id GET "${response}" id)
  if(no_id OR NOT got_id STREQUAL want_id)
    message(FATAL_ERROR "response ${i} answers id '${got_id}', "
                        "request has id ${want_id}: ${response}")
  endif()
  string(JSON ok GET "${response}" ok)
  if(ok)
    if(want_id IN_LIST cached_ids)
      string(JSON cached GET "${response}" result cached)
      if(NOT cached)
        message(FATAL_ERROR "repeat request ${want_id} missed the cache: "
                            "${response}")
      endif()
    endif()
  else()
    string(JSON code GET "${response}" error code)
    if(code STREQUAL "internal_error")
      message(FATAL_ERROR "request ${want_id} hit an internal_error: "
                          "${response}")
    endif()
  endif()
endforeach()
message(STATUS "hlshc_serve answered ${n_responses} requests in order")
