# End-to-end contract of the statsdiff regression sentinel (tools/
# statsdiff.cc): identical runs diff clean, an injected deterministic-counter
# drift fails with a nonzero exit, so does an injected runtime-counter drift
# under --counters, a real --trace-out file passes --validate-trace, and a
# structurally broken trace fails it.
#
# Invoked as:
#   cmake -DCLI=<corrmine_cli> -DSTATSDIFF=<statsdiff> -DWORKDIR=<dir>
#         -P statsdiff_cli.cmake

execute_process(
  COMMAND ${CLI} generate quest --baskets 2000
          --out ${WORKDIR}/sdiff_fixture.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc}")
endif()

# Two runs of the same configuration; the second also records a trace.
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/sdiff_fixture.txt
          --support-count 100 --cell-fraction 0.26 --max-level 3
          --threads 1 --stats-json ${WORKDIR}/sdiff_a.json
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine (baseline) failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/sdiff_fixture.txt
          --support-count 100 --cell-fraction 0.26 --max-level 3
          --threads 8 --shards 4 --stats-json ${WORKDIR}/sdiff_b.json
          --trace-out ${WORKDIR}/sdiff_trace.json
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine (traced) failed: ${rc}")
endif()

# 1. Cross-configuration diff must be clean: the deterministic section (and
#    the stable counter families) are contractually invariant across
#    --threads and --shards.
execute_process(
  COMMAND ${STATSDIFF} ${WORKDIR}/sdiff_a.json ${WORKDIR}/sdiff_b.json
          --counters miner.,count_provider.
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "statsdiff reported drift on matching runs "
                      "(rc=${rc}):\n${out}${err}")
endif()

# 2. Injected drift in a deterministic counter must fail. Bump the level-2
#    candidate count by one in a copy of the baseline document.
file(READ ${WORKDIR}/sdiff_a.json doc)
string(REGEX MATCH "\"level\":2,\"possible\":[0-9]+,\"cand\":([0-9]+)"
       matched "${doc}")
if(matched STREQUAL "")
  message(FATAL_ERROR "no level-2 cand counter found in:\n${doc}")
endif()
math(EXPR bumped "${CMAKE_MATCH_1} + 1")
string(REPLACE "\"cand\":${CMAKE_MATCH_1}" "\"cand\":${bumped}"
       drifted "${doc}")
file(WRITE ${WORKDIR}/sdiff_drift.json "${drifted}")
execute_process(
  COMMAND ${STATSDIFF} ${WORKDIR}/sdiff_a.json ${WORKDIR}/sdiff_drift.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "statsdiff missed an injected counter drift "
                      "(rc=${rc}):\n${err}")
endif()
string(FIND "${err}" "DRIFT deterministic" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "drift report does not name the deterministic "
                      "section:\n${err}")
endif()

# 3. Injected drift in a runtime counter must fail under --counters: the
#    runtime families are always compared, so bump miner.candidates in a
#    copy of the baseline and require exit 1 naming it.
string(REGEX MATCH "\"miner\\.candidates\":([0-9]+)" matched "${doc}")
if(matched STREQUAL "")
  message(FATAL_ERROR "no runtime miner.candidates counter found in:\n${doc}")
endif()
math(EXPR bumped "${CMAKE_MATCH_1} + 1")
string(REPLACE "${matched}" "\"miner.candidates\":${bumped}"
       runtime_drifted "${doc}")
file(WRITE ${WORKDIR}/sdiff_runtime_drift.json "${runtime_drifted}")
execute_process(
  COMMAND ${STATSDIFF} ${WORKDIR}/sdiff_a.json
          ${WORKDIR}/sdiff_runtime_drift.json --counters miner.
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "statsdiff missed an injected runtime counter drift "
                      "(rc=${rc}):\n${err}")
endif()
string(FIND "${err}" "DRIFT runtime.counters.miner.candidates" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "drift report does not name the runtime "
                      "counter:\n${err}")
endif()

#    A document with no runtime counters object cannot satisfy --counters:
#    comparing nothing must not pass.
string(REGEX REPLACE "\"runtime\": [^\n]*" "\"runtime\": {}"
       no_runtime "${doc}")
file(WRITE ${WORKDIR}/sdiff_no_runtime.json "${no_runtime}")
execute_process(
  COMMAND ${STATSDIFF} ${WORKDIR}/sdiff_a.json
          ${WORKDIR}/sdiff_no_runtime.json --counters miner.
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "statsdiff --counters passed a document without "
                      "runtime counters (rc=${rc}):\n${err}")
endif()

# 4. The recorded trace must satisfy the Chrome-format invariants.
if(NOT EXISTS ${WORKDIR}/sdiff_trace.json)
  message(FATAL_ERROR "--trace-out wrote no file")
endif()
execute_process(
  COMMAND ${STATSDIFF} --validate-trace ${WORKDIR}/sdiff_trace.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace failed validation (rc=${rc}):\n${out}${err}")
endif()

# 5. A corrupted trace — an end event injected with no matching begin —
#    must fail validation.
file(WRITE ${WORKDIR}/sdiff_bad_trace.json
     "{\"traceEvents\":[\n"
     "{\"name\":\"orphan\",\"ph\":\"E\",\"ts\":1.0,\"pid\":0,\"tid\":0}\n"
     "]}\n")
execute_process(
  COMMAND ${STATSDIFF} --validate-trace ${WORKDIR}/sdiff_bad_trace.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "statsdiff accepted a corrupted trace (rc=${rc})")
endif()
