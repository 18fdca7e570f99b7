# End-to-end CLI smoke test: generate a small dataset, mine it, and run the
# rule baseline; any non-zero exit fails the test.
execute_process(
  COMMAND ${CLI} generate quest --baskets 500 --out ${WORKDIR}/smoke.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
          --cell-fraction 0.26 --max-level 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine failed: ${rc}")
endif()
if(NOT out MATCHES "level 2")
  message(FATAL_ERROR "mine output missing level stats: ${out}")
endif()
execute_process(
  COMMAND ${CLI} rules ${WORKDIR}/smoke.txt --min-support 0.02
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rules failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} bogus RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()

# Integer flags past INT32_MAX are rejected, not wrapped: 4294967299 would
# narrow to 3 and 2147483648 to a negative (unlimited) level cap.
foreach(arg "--max-level;4294967299" "--max-level;2147483648"
            "--threads;4294967297" "--shards;4294967297")
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
            --cell-fraction 0.26 ${arg}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "out of range")
    message(FATAL_ERROR "mine ${arg} should fail as out of range: ${rc} ${err}")
  endif()
endforeach()

# A ten-byte varint whose last byte carries bits past 2^64 is corrupt to
# every CMB1 reader: the out-of-core stream must refuse the file exactly
# like the in-memory load. Bytes: CMB1, item space 4, one basket whose size
# is the overlong varint (low bits 2), then deltas 1, 1.
string(ASCII 67 77 66 49 4 1 130 128 128 128 128 128 128 128 128 2 1 1
       overlong)
file(WRITE ${WORKDIR}/overlong.bin "${overlong}")
foreach(mode "" "--out-of-core")
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/overlong.bin --support-count 1 ${mode}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "Corruption")
    message(FATAL_ERROR
            "mine ${mode} should reject an overlong varint: ${rc} ${err}")
  endif()
endforeach()

# Exact-test of one itemset.
execute_process(
  COMMAND ${CLI} check ${WORKDIR}/smoke.txt --items 0,1 --rounds 50
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "exact")
  message(FATAL_ERROR "check failed: ${rc} ${out}")
endif()

# Result serialization via --out.
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
          --cell-fraction 0.26 --max-level 2 --out ${WORKDIR}/result.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/result.txt)
  message(FATAL_ERROR "mine --out failed")
endif()

# Categorical dependencies from CSV.
file(WRITE ${WORKDIR}/deps.csv
"color,size\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nred,big\nred,big\nred,big\nblue,small\nblue,small\nblue,small\n")
execute_process(
  COMMAND ${CLI} dependencies ${WORKDIR}/deps.csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "color")
  message(FATAL_ERROR "dependencies failed: ${rc} ${out}")
endif()
