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
  RESULT_VARIABLE rc OUTPUT_VARIABLE apriori_rules)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rules failed: ${rc}")
endif()
# Eclat over the session's shard indexes prints exactly what Apriori does.
execute_process(
  COMMAND ${CLI} rules ${WORKDIR}/smoke.txt --min-support 0.02
          --algo eclat --shards 3 --threads 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE eclat_rules)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rules --algo eclat failed: ${rc}")
endif()
if(apriori_rules STREQUAL "" OR NOT eclat_rules STREQUAL apriori_rules)
  message(FATAL_ERROR "rules --algo eclat --shards 3 --threads 2 differs "
          "from the default apriori run")
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

# Unknown flags exit 2 naming the flag instead of being ignored: the
# misspelling below would otherwise mine at the default support 3, and a
# flag the CLI no longer has would silently do nothing.
foreach(arg "--suport-count;25" "--provider;compressed")
  list(GET arg 0 flag)
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/smoke.txt ${arg} --max-level 2
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag ${flag}")
    message(FATAL_ERROR "mine ${arg} should exit 2 naming ${flag}: ${rc} ${err}")
  endif()
endforeach()
# `check` reads its file into one row store: it has no shards to set.
execute_process(
  COMMAND ${CLI} check ${WORKDIR}/smoke.txt --items 0,1 --rounds 5 --shards 2
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --shards")
  message(FATAL_ERROR "check --shards 2 should exit 2 naming --shards: ${rc} ${err}")
endif()

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

# Out of memory ends the command with a Status, not an abort: under a
# 12 MB address-space limit (a 500-basket mine fits in 8 MB) the 100 000
# baskets below cannot be loaded and indexed.
execute_process(
  COMMAND ${CLI} generate quest --baskets 100000 --format binary
          --out ${WORKDIR}/oom.cmb
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate for the memory-limit case failed: ${rc}")
endif()
execute_process(
  COMMAND sh -c "ulimit -v 12000; exec \"$0\" mine \"$1\" --support-count 2500 --cell-fraction 0.26 --threads 1"
          ${CLI} ${WORKDIR}/oom.cmb
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "ResourceExhausted")
  message(FATAL_ERROR
          "mine under ulimit -v should exit 1 with ResourceExhausted: ${rc} ${err}")
endif()
# The same on four threads: an allocation failure on a worker, or while a
# parallel region queues its helpers, must end the command the same way
# instead of aborting it.
foreach(limit 64000 96000 136000 176000)
  execute_process(
    COMMAND sh -c "ulimit -v ${limit}; exec \"$0\" mine \"$1\" --support-count 2500 --cell-fraction 0.26 --threads 4"
            ${CLI} ${WORKDIR}/oom.cmb
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "ResourceExhausted")
    message(FATAL_ERROR
            "mine --threads 4 under ulimit -v ${limit} should exit 1 with ResourceExhausted: ${rc} ${err}")
  endif()
endforeach()
# Out of core on four threads: partition closes run on the pool behind the
# reader and the sweeps decode columns lazily on the workers. Running out
# of memory in any of them ends the command the same way. (No allocation
# may unwind through a glibc frame such as std::call_once's pthread_once:
# glibc then dlopens libgcc_s, which fails with memory gone, and aborts.)
foreach(limit 56000 88000 136000)
  execute_process(
    COMMAND sh -c "ulimit -v ${limit}; exec \"$0\" mine \"$1\" --support-count 2500 --cell-fraction 0.26 --out-of-core --memory-budget 8388608 --threads 4"
            ${CLI} ${WORKDIR}/oom.cmb
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "ResourceExhausted")
    message(FATAL_ERROR
            "mine --out-of-core --threads 4 under ulimit -v ${limit} should exit 1 with ResourceExhausted: ${rc} ${err}")
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

# Resume over a grown CMB1 input: mine with --border-out, `ingest --append`
# a delta (a second segment), then mine with --resume-from. The rows past
# the snapshot are read back from the session's bitmaps and folded into
# it, and the repaired --out rules must equal a from-scratch mine of the
# grown file byte for byte. 601 base baskets over 4 shards make the tail
# start inside a shard's bitmap word.
set(resume_mine --support-count 15 --cell-fraction 0.26 --max-level 2)
execute_process(
  COMMAND ${CLI} generate quest --baskets 601 --seed 5 --format binary
          --out ${WORKDIR}/resume.cmb
  RESULT_VARIABLE rc OUTPUT_QUIET)
execute_process(
  COMMAND ${CLI} generate quest --baskets 60 --seed 6
          --out ${WORKDIR}/resume_delta.txt
  RESULT_VARIABLE rc2 OUTPUT_QUIET)
if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "generate for the resume case failed: ${rc} ${rc2}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/resume.cmb ${resume_mine}
          --border-out ${WORKDIR}/resume.cbs
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine --border-out failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} ingest ${WORKDIR}/resume.cmb
          --append ${WORKDIR}/resume_delta.txt
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest --append failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/resume.cmb ${resume_mine} --shards 4
          --resume-from ${WORKDIR}/resume.cbs
          --out ${WORKDIR}/resume_repaired.txt
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "folded 60 appended baskets")
  message(FATAL_ERROR "mine --resume-from failed or folded no tail: ${rc} ${err}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/resume.cmb ${resume_mine}
          --out ${WORKDIR}/resume_scratch.txt
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "from-scratch mine of the grown file failed: ${rc}")
endif()
file(READ ${WORKDIR}/resume_repaired.txt repaired)
file(READ ${WORKDIR}/resume_scratch.txt scratch)
if(repaired STREQUAL "" OR NOT repaired STREQUAL scratch)
  message(FATAL_ERROR
          "--resume-from rules differ from a from-scratch mine of the grown file")
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
