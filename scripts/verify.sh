#!/usr/bin/env bash
# Tier-1 verification plus hardening passes: the stats regression sentinel
# across a threads x shards matrix, a trace-validation stage, a profiling
# stage (the pure-observer sentinel across off/sampling/PMU/both plus
# collapsed-stack validation), a ThreadSanitizer run over the
# concurrency-sensitive suites (the
# parallel mining engine, its pool, and the count providers), and an
# AddressSanitizer run over the suites that feed the input decoders. Run
# from the repository root:
#
#   scripts/verify.sh                  # everything
#   SKIP_TSAN=1 scripts/verify.sh      # skip the TSan stage
#   SKIP_ASAN=1 scripts/verify.sh      # skip the ASan stage
#   SKIP_STATSDIFF=1 scripts/verify.sh    # skip the statsdiff/trace stages
#   SKIP_PROFILE=1 scripts/verify.sh      # skip the profiling stage (the
#                                         # pure-observer sentinel plus
#                                         # collapsed-stack validation)
#   SKIP_BENCH=1 scripts/verify.sh        # skip the bench stages (kernel
#                                         # throughput + scheduler and
#                                         # incremental gates)
#   SKIP_INCREMENTAL=1 scripts/verify.sh  # skip the incremental repair stage
#   SKIP_OUTOFCORE=1 scripts/verify.sh    # skip the out-of-core stage
#                                         # (spill-partition mining + the
#                                         # memory-budget bench gate)
#
# Test slices by ctest label (tier-1 build):
#   (cd build && ctest -L unit)          # fast unit suites
#   (cd build && ctest -L differential)  # cross-implementation agreement
#   (cd build && ctest -L golden)        # paper-table golden snapshots
#   (cd build && ctest -L sharded)       # K-invariance / sharded core
#   (cd build && ctest -L metrics)       # observability layer
#   (cd build && ctest -L trace)         # tracing + trace validation
#   (cd build && ctest -L incremental)   # border repair / snapshots
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j)

echo "== sharded slice: K-invariance suites =="
(cd build && ctest --output-on-failure -L sharded)

if [[ "${SKIP_STATSDIFF:-0}" != "1" ]]; then
  echo "== statsdiff sentinel: threads x shards stats matrix =="
  # Every configuration's stats must diff clean against the first one:
  # the deterministic section exactly, plus the schedule-independent
  # counter families. statsdiff exits nonzero on any drift.
  SDIR=build/statsdiff-matrix
  rm -rf "$SDIR" && mkdir -p "$SDIR"
  build/tools/corrmine_cli generate quest --baskets 2000 \
    --out "$SDIR/fixture.txt" >/dev/null
  # The 2 000-basket fixture is 32 words, inside one word stripe of the
  # bitmap executor (DESIGN.md §9). This one spans 4 219 words: its batches
  # (about 120 columns, so 1 024-word stripes) take two stripes per shard
  # up to K = 4, so the matrix also covers stripe tasks, group splits and
  # the per-slot reduction.
  build/tools/corrmine_cli generate quest --baskets 270000 --format binary \
    --out "$SDIR/stripes.cmb" >/dev/null
  FIXTURES=("fixture.txt:100" "stripes.cmb:10000")
  for spec in "${FIXTURES[@]}"; do
    fixture="${spec%%:*}"
    support="${spec##*:}"
    baseline=""
    for threads in 1 8; do
      for shards in 1 2 4 7; do
        stats="$SDIR/stats_${fixture%%.*}_t${threads}_s${shards}.json"
        build/tools/corrmine_cli mine "$SDIR/$fixture" \
          --support-count "$support" --cell-fraction 0.26 --max-level 3 \
          --threads "$threads" --shards "$shards" \
          --stats-json "$stats" >/dev/null
        if [[ -z "$baseline" ]]; then
          baseline="$stats"
        else
          build/tools/statsdiff "$baseline" "$stats" \
            --counters miner.,count_provider.
        fi
      done
    done
  done

  echo "== kernel sentinel: forced-scalar vs dispatched counting =="
  # A SIMD kernel may only change throughput, never an answer: the
  # deterministic section and the kernel.* logical-word counters must be
  # byte-identical between a forced-scalar run and whatever the CPU
  # dispatcher picked. (kernel.* counters are shard-dependent, so this
  # stage pins --shards and stays out of the matrix above.)
  for spec in "${FIXTURES[@]}"; do
    fixture="${spec%%:*}"
    support="${spec##*:}"
    build/tools/corrmine_cli mine "$SDIR/$fixture" \
      --support-count "$support" --cell-fraction 0.26 --max-level 3 \
      --threads 8 --shards 4 --kernel scalar \
      --stats-json "$SDIR/stats_${fixture%%.*}_kernel_scalar.json" >/dev/null
    build/tools/corrmine_cli mine "$SDIR/$fixture" \
      --support-count "$support" --cell-fraction 0.26 --max-level 3 \
      --threads 8 --shards 4 \
      --stats-json "$SDIR/stats_${fixture%%.*}_kernel_auto.json" >/dev/null
    build/tools/statsdiff "$SDIR/stats_${fixture%%.*}_kernel_scalar.json" \
      "$SDIR/stats_${fixture%%.*}_kernel_auto.json" \
      --counters miner.,count_provider.,kernel.
  done

  echo "== kernel sentinel: compressed counting columns =="
  # Same invariance for the hybrid-container kernels, which count the
  # out-of-core sweeps: array/dense/run intersections route through the
  # same dispatch table, so a forced-scalar and a dispatched out-of-core
  # mine (an 8 MiB budget in 16 KiB partitions: 10 spill partitions) must
  # agree on the deterministic section and the kernel.* logical-element
  # counters. And the column counts must answer byte-identically to the
  # bitmap run (deterministic section and the miner/count-provider
  # families; kernel.* differ across the two index layouts).
  for kernel in scalar auto; do
    build/tools/corrmine_cli mine "$SDIR/fixture.txt" \
      --support-count 100 --cell-fraction 0.26 --max-level 3 \
      --out-of-core --memory-budget 8388608 --partition-budget 16384 \
      --threads 8 --kernel "$kernel" \
      --stats-json "$SDIR/stats_column_${kernel}.json" >/dev/null
  done
  build/tools/statsdiff "$SDIR/stats_column_scalar.json" \
    "$SDIR/stats_column_auto.json" \
    --counters miner.,count_provider.,kernel.
  build/tools/statsdiff "$SDIR/stats_fixture_kernel_auto.json" \
    "$SDIR/stats_column_auto.json" \
    --counters miner.,count_provider.

  echo "== trace stage: record + validate a Chrome trace =="
  build/tools/corrmine_cli mine "$SDIR/fixture.txt" \
    --support-count 100 --cell-fraction 0.26 --max-level 3 \
    --threads 8 --shards 4 --trace-out "$SDIR/run.trace.json" >/dev/null
  build/tools/statsdiff --validate-trace "$SDIR/run.trace.json"
fi

if [[ "${SKIP_PROFILE:-0}" != "1" ]]; then
  echo "== profile stage: pure-observer sentinel + collapsed stacks =="
  # The profiler's acceptance contract (DESIGN.md §13): turning on either
  # collector — SIGPROF sampling (--profile-out), the PMU phase counters
  # (--pmu), or both at once — must leave the deterministic stats section
  # and the schedule-independent counter families byte-identical to an
  # unprofiled run. statsdiff pins that; the validators then check the
  # non-deterministic artifacts structurally: the stats "profile" section,
  # the collapsed-stack file (flamegraph.pl input), and a Chrome trace
  # recorded WITH sampling folded in. On machines where perf_event_open is
  # denied the --pmu runs exercise the degradation path instead — the
  # sentinel holds either way, which is exactly the point.
  PDIR=build/profile-out
  rm -rf "$PDIR" && mkdir -p "$PDIR"
  PFLAGS=(--support-count 100 --cell-fraction 0.26 --max-level 3
          --threads 8 --shards 4)
  build/tools/corrmine_cli generate quest --baskets 2000 \
    --out "$PDIR/fixture.txt" >/dev/null
  build/tools/corrmine_cli mine "$PDIR/fixture.txt" "${PFLAGS[@]}" \
    --stats-json "$PDIR/stats_off.json" >/dev/null
  build/tools/corrmine_cli mine "$PDIR/fixture.txt" "${PFLAGS[@]}" \
    --profile-out "$PDIR/sampling.folded" \
    --stats-json "$PDIR/stats_sampling.json" >/dev/null 2>/dev/null
  build/tools/corrmine_cli mine "$PDIR/fixture.txt" "${PFLAGS[@]}" \
    --pmu \
    --stats-json "$PDIR/stats_pmu.json" >/dev/null 2>/dev/null
  build/tools/corrmine_cli mine "$PDIR/fixture.txt" "${PFLAGS[@]}" \
    --pmu --profile-out "$PDIR/both.folded" \
    --trace-out "$PDIR/profiled.trace.json" \
    --stats-json "$PDIR/stats_both.json" >/dev/null 2>/dev/null
  for mode in sampling pmu both; do
    build/tools/statsdiff "$PDIR/stats_off.json" \
      "$PDIR/stats_${mode}.json" --counters miner.,count_provider.
  done
  build/tools/statsdiff --validate-profile "$PDIR/stats_off.json"
  build/tools/statsdiff --validate-profile "$PDIR/stats_both.json"
  build/tools/statsdiff --validate-collapsed "$PDIR/sampling.folded"
  build/tools/statsdiff --validate-collapsed "$PDIR/both.folded"
  build/tools/statsdiff --validate-trace "$PDIR/profiled.trace.json"
fi

if [[ "${SKIP_INCREMENTAL:-0}" != "1" ]]; then
  echo "== incremental slice: border repair suites =="
  (cd build && ctest --output-on-failure -L incremental)

  echo "== incremental statsdiff: repair path vs from-scratch =="
  # The CLI loop end to end: snapshot the base mine, append a delta chunk
  # through ingest, then resume-repair — the deterministic stats section
  # and the schedule-independent counter families must diff clean against
  # a from-scratch mine of the grown file. This also pins that tracing and
  # repair metrics stay out of the deterministic section on the repair
  # path.
  IDIR=build/incremental-out
  rm -rf "$IDIR" && mkdir -p "$IDIR"
  IFLAGS=(--support-count 100 --cell-fraction 0.26 --max-level 3)
  build/tools/corrmine_cli generate quest --baskets 2000 \
    --out "$IDIR/work.txt" >/dev/null
  build/tools/corrmine_cli generate quest --baskets 100 --seed 4711 \
    --out "$IDIR/delta.txt" >/dev/null
  build/tools/corrmine_cli mine "$IDIR/work.txt" "${IFLAGS[@]}" \
    --border-out "$IDIR/base.cbs" >/dev/null
  build/tools/corrmine_cli ingest "$IDIR/work.txt" \
    --append "$IDIR/delta.txt" >/dev/null
  build/tools/corrmine_cli mine "$IDIR/work.txt" "${IFLAGS[@]}" \
    --stats-json "$IDIR/scratch.json" >/dev/null
  build/tools/corrmine_cli mine "$IDIR/work.txt" \
    --resume-from "$IDIR/base.cbs" \
    --stats-json "$IDIR/repair.json" >/dev/null 2>/dev/null
  build/tools/statsdiff "$IDIR/scratch.json" "$IDIR/repair.json" \
    --counters miner.,count_provider.

  echo "== incremental trace: record + validate a repair trace =="
  build/tools/corrmine_cli mine "$IDIR/work.txt" \
    --resume-from "$IDIR/base.cbs" \
    --trace-out "$IDIR/repair.trace.json" >/dev/null 2>/dev/null
  build/tools/statsdiff --validate-trace "$IDIR/repair.trace.json"
fi

if [[ "${SKIP_OUTOFCORE:-0}" != "1" ]]; then
  echo "== out-of-core slice: spill-partition suites =="
  (cd build && ctest --output-on-failure -R '^(outofcore_test|counting_column_test)$')

  echo "== out-of-core differential: spill mining vs in-memory =="
  # The §12 exactness contract end to end through the CLI: mining with
  # --out-of-core under a partition-forcing budget must produce the rule
  # file byte-for-byte and a clean deterministic-stats diff against the
  # in-memory mine, at 1 and 8 threads. The miner and count-provider
  # counter families must match too: the out-of-core walk is the one
  # in-memory walk over another provider, so it runs once and asks the
  # same questions in the same batches (item counts, then one sweep per
  # level). The 8-thread run also records a Chrome trace (spill, sweep and
  # per-partition count phases on the pool workers), which must validate.
  ODIR=build/outofcore-out
  rm -rf "$ODIR" && mkdir -p "$ODIR"
  OFLAGS=(--support-count 3000 --cell-fraction 0.26 --max-level 3)
  build/tools/corrmine_cli generate quest --baskets 60000 \
    --format binary --out "$ODIR/fixture.cmb" >/dev/null
  build/tools/corrmine_cli mine "$ODIR/fixture.cmb" "${OFLAGS[@]}" \
    --out "$ODIR/rules_mem.txt" \
    --stats-json "$ODIR/stats_mem.json" >/dev/null
  for threads in 1 8; do
    trace_flags=()
    if [[ "$threads" == 8 ]]; then
      trace_flags=(--trace-out "$ODIR/ooc_t8.trace.json")
    fi
    build/tools/corrmine_cli mine "$ODIR/fixture.cmb" "${OFLAGS[@]}" \
      --out-of-core --memory-budget $((8 * 1024 * 1024)) \
      --threads "$threads" "${trace_flags[@]}" \
      --out "$ODIR/rules_ooc_t${threads}.txt" \
      --stats-json "$ODIR/stats_ooc_t${threads}.json" >/dev/null
    cmp "$ODIR/rules_mem.txt" "$ODIR/rules_ooc_t${threads}.txt"
    build/tools/statsdiff "$ODIR/stats_mem.json" \
      "$ODIR/stats_ooc_t${threads}.json"
    build/tools/statsdiff "$ODIR/stats_mem.json" \
      "$ODIR/stats_ooc_t${threads}.json" --counters miner.,count_provider.
  done
  build/tools/statsdiff --validate-trace "$ODIR/ooc_t8.trace.json"

  echo "== out-of-core sentinel: serial vs parallel admission =="
  # The admission controller must be invisible in the answer AND in the
  # deterministic pipeline stats. Two probes:
  #
  # 1. threads=1 (admitted=1 by construction, identical partitioning) vs
  #    threads=8 (default sweep width): the schedule-independent
  #    out-of-core counters — partition count, swept queries — must match
  #    exactly. The outofcore.admitted_partitions gauge legitimately
  #    differs, so the prefixes name the invariant families rather than
  #    "outofcore.".
  build/tools/statsdiff "$ODIR/stats_ooc_t1.json" \
    "$ODIR/stats_ooc_t8.json" \
    --counters outofcore.partitions,outofcore.candidate_queries,outofcore.memo
  #
  # 2. The forced-serial knob: --partition-budget equal to the memory
  #    budget degrades an 8-thread run to admitted=1. Partition sizing
  #    changes with the knob (it is the same budget that closes
  #    partitions), so only the rule bytes and the deterministic section
  #    are compared — which is the point: the answer must not move.
  build/tools/corrmine_cli mine "$ODIR/fixture.cmb" "${OFLAGS[@]}" \
    --out-of-core --memory-budget $((8 * 1024 * 1024)) \
    --partition-budget $((8 * 1024 * 1024)) --threads 8 \
    --out "$ODIR/rules_ooc_serial.txt" \
    --stats-json "$ODIR/stats_ooc_serial.json" >/dev/null
  cmp "$ODIR/rules_mem.txt" "$ODIR/rules_ooc_serial.txt"
  build/tools/statsdiff "$ODIR/stats_mem.json" "$ODIR/stats_ooc_serial.json"
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "== bench stage: kernel throughput =="
  # The SIMD layer's reason to exist: bench_kernels CHECK-fails if any
  # kernel's counts diverge, and its table shows the measured speedups.
  cmake --build build -j --target bench_kernels >/dev/null
  build/bench/bench_kernels

  echo "== bench stage: scheduler scaling gate =="
  # Parallel-scaling regression gate (DESIGN.md §10): bench_parallel and
  # bench_sharded CHECK determinism internally; benchgate then enforces the
  # scaling contract — 3.0x at 8 threads on >= 8 usable cores, scaled to
  # the cores this machine actually grants (cgroup/affinity-aware), and
  # <= 10% sharding overhead while K fits the core count — and refreshes
  # BENCH_scheduler.json.
  cmake --build build -j --target bench_parallel bench_sharded benchgate \
    >/dev/null
  BDIR=build/bench-out
  mkdir -p "$BDIR"
  build/bench/bench_parallel | tee "$BDIR/parallel.txt" | grep -v BENCH_
  build/bench/bench_sharded | tee "$BDIR/sharded.txt" | grep -v BENCH_
  build/tools/benchgate --out BENCH_scheduler.json \
    "$BDIR/parallel.txt" "$BDIR/sharded.txt"

  if [[ "${SKIP_INCREMENTAL:-0}" != "1" ]]; then
    echo "== bench stage: incremental repair gate =="
    # Border repair vs. full re-mine (DESIGN.md §11): bench_incremental
    # CHECKs byte-equality of the two results internally; benchgate then
    # enforces the repair-speedup floor on <= 1% deltas (scaled to this
    # machine's usable cores) and refreshes BENCH_incremental.json.
    cmake --build build -j --target bench_incremental benchgate >/dev/null
    build/bench/bench_incremental | tee "$BDIR/incremental.txt" \
      | grep -v BENCH_
    build/tools/benchgate --out BENCH_incremental.json \
      "$BDIR/incremental.txt"
  fi

  if [[ "${SKIP_OUTOFCORE:-0}" != "1" ]]; then
    echo "== bench stage: out-of-core memory gate =="
    # The §12 budget contract: bench_outofcore streams a dataset >= 10x
    # its --memory-budget through the spill and the per-level sweeps
    # (CHECKing exactness against an in-memory mine AND against a
    # forced-serial run internally); benchgate then enforces peak RSS
    # <= 1.1x budget and the v2 spill-compression ratio <= 0.7x raw —
    # both core-independent — plus, on machines with >= 4 usable cores,
    # the sweep speedup floor (report-only below) — and refreshes
    # BENCH_outofcore.json.
    cmake --build build -j --target bench_outofcore benchgate >/dev/null
    build/bench/bench_outofcore | tee "$BDIR/outofcore.txt" \
      | grep -v BENCH_
    build/tools/benchgate --out BENCH_outofcore.json \
      "$BDIR/outofcore.txt"
  fi
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== TSan: parallel engine suites =="
  cmake -B build-tsan -S . -DCORRMINE_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j \
    --target thread_pool_test miner_test batch_tables_test \
    sharded_database_test trace_test \
    profiler_test kernel_differential_test scheduler_determinism_test \
    incremental_differential_test border_state_test \
    differential_miners_test counting_column_test outofcore_test >/dev/null
  (cd build-tsan &&
   ctest --output-on-failure \
     -R '^(thread_pool_test|miner_test|batch_tables_test|sharded_database_test|trace_test|profiler_test|kernel_differential_test|scheduler_determinism_test|incremental_differential_test|border_state_test|differential_miners_test|counting_column_test|outofcore_test)$')
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== ASan: input decoder suites =="
  # The CMB1 decoder (io/cmb1_decoder.h) is pointer arithmetic over
  # untrusted bytes: an out-of-bounds read there passes every suite that
  # only checks Status values. These suites feed it truncated, corrupt and
  # window-straddling files, and the CBS1 snapshots its varint reader.
  cmake -B build-asan -S . -DCORRMINE_SANITIZE=address >/dev/null
  cmake --build build-asan -j \
    --target binary_io_test sharded_database_test session_test \
    outofcore_test border_state_test io_test >/dev/null
  (cd build-asan &&
   ctest --output-on-failure \
     -R '^(binary_io_test|sharded_database_test|session_test|outofcore_test|border_state_test|io_test)$')
fi

echo "verify: OK"
