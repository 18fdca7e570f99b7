#!/usr/bin/env python3
"""Exact-repeat self-check of the benchmark: for one seed, the work counts
(core.candidates, core.chi2_tests, itemset.count_queries, itemset.and_words,
io.spill_bytes, mining.partitions, mining.candidate_queries, memo hits and
misses) and the result digest must be identical across runs, untraced and
traced. Later performance claims may rest on these counts, so a drift fails
this test.

Run from the repository root (takes a few minutes):

    python3 perfbench/test_repeat.py [--seed 5] [--workload mine-q400k ...]
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("mine-q400k", "outofcore-q500k", "repair-q200k")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s seed %d trace %d exited with %d" % (
            workload, seed, trace, proc.returncode))
    counts = {}
    digests = set()
    for line in lines:
        parts = line.split()
        if parts[:1] == ["count"]:
            counts[parts[1]] = int(parts[2])
        elif line.startswith("seed "):
            digests.add(line.split("result digests ")[-1])
    correct = '"correct": true' in lines[-1]
    return counts, digests, correct


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    failures = 0
    for workload in args.workload:
        runs = [run(workload, args.seed, trace) for trace in (0, 0, 1)]
        counts = [r[0] for r in runs]
        ok = (all(r[2] for r in runs) and counts[0] and
              counts[0] == counts[1] == counts[2] and
              runs[0][1] == runs[1][1] == runs[2][1])
        print("%-14s %s  %s" % (workload, "ok  " if ok else "FAIL",
                               " ".join("%s=%d" % kv for kv in sorted(counts[0].items()))))
        if not ok:
            failures += 1
            for i, r in enumerate(runs):
                print("  run %d: correct=%s digests=%s counts=%s" % (i, r[2], r[1], r[0]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
