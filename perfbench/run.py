#!/usr/bin/env python3
"""corrmine repository benchmark: runs one workload from a seed and prints
its metrics. See perfbench/NOTES.md for the workloads, metrics and noise
controls.

Run from the repository root:

    python3 perfbench/run.py --workload mine-q400k --seed 1 --seconds 30 --trace 0

The first run builds the library and the harness into .bench_build/ and
writes the shared Quest population there. Each run then

  1. prepares the seed's inputs (perfbench_harness prepare, own process),
  2. derives the reference digest (pinned for the default seed, else an
     independent configuration in its own process),
  3. runs the timed process (perfbench_harness run),
  4. checks digests, failed calls and that the work counts repeat between
     the run's iterations,

and prints a report followed by one JSON line with the metrics that
BENCHMARK.json lists: the end-to-end ones with --trace 0, the per-layer
ones with --trace 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
POPULATION = os.path.join(BUILD_DIR, "data", "population.cmb")
WORKLOADS = ("mine-q400k", "outofcore-q500k", "repair-q200k")
BUILD_JOBS = "3"
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, capture=False):
    """Runs cmd to completion; the child is killed and reaped on timeout."""
    proc = subprocess.run(
        cmd, cwd=ROOT, timeout=max(timeout, 1.0), text=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd[:2]),
                                                  proc.returncode))
    return proc.stdout


def build(deadline):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], deadline - time.time())
    run_checked(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
                deadline - time.time())


def build_id():
    """Hash of the harness binary, which links the library statically.
    Everything the harness writes outside the timed process (population,
    inputs, snapshot, derived reference) is stamped with it and rewritten
    when another build runs, so one build is never timed or checked on
    files another build wrote."""
    digest = hashlib.sha256()
    with open(HARNESS, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def read_stamp(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def write_stamp(path, value):
    with open(path, "w") as f:
        f.write(value)


def ensure_population(build_hash, deadline):
    stamp = POPULATION + ".build"
    if os.path.exists(POPULATION) and read_stamp(stamp) == build_hash:
        return
    os.makedirs(os.path.dirname(POPULATION), exist_ok=True)
    run_checked([HARNESS, "population", "--out", POPULATION],
                deadline - time.time())
    write_stamp(stamp, build_hash)


def prepare(workload, seed, build_hash, deadline):
    """Writes the seed's inputs into the workload's work dir (reused when the
    previous run of this workload had the same seed and build)."""
    work = os.path.join(BUILD_DIR, "work", workload)
    stamp = os.path.join(work, "stamp")
    key = "seed %d build %s" % (seed, build_hash)
    if read_stamp(stamp) == key:
        return work
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run_checked([HARNESS, "prepare", "--workload", workload, "--seed", str(seed),
                 "--dir", work, "--population", POPULATION],
                deadline - time.time())
    write_stamp(stamp, key)
    return work


def reference(workload, seed, work, deadline):
    with open(os.path.join(BENCH_DIR, "reference_digests.json")) as f:
        pinned = json.load(f)
    if seed == pinned["seed"]:
        return pinned["digests"][workload], "pinned"
    # Cached in the work dir, which prepare() empties on a new seed or build.
    cache = os.path.join(work, "reference")
    digest = read_stamp(cache)
    if digest:
        return digest, "derived"
    out = run_checked([HARNESS, "reference", "--workload", workload,
                       "--dir", work], deadline - time.time(), capture=True)
    digest = out.split()[-1]
    write_stamp(cache, digest)
    return digest, "derived"


def parse(lines):
    parsed = {"record": {}, "sample": {}, "layer": {}, "count": {},
              "digest": [], "span": [], "error": [], "calls": (0, 0),
              "repeat_mismatch": False}
    for line in lines.splitlines():
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "record":
            parsed["record"][parts[1]] = " ".join(parts[2:])
        elif kind == "sample":
            parsed["sample"][parts[1]] = (parts[2], [float(v) for v in parts[3:]])
        elif kind == "layer":
            parsed["layer"][parts[1]] = (parts[2], float(parts[3]))
        elif kind == "count":
            parsed["count"][parts[1]] = int(parts[2])
        elif kind == "digest":
            parsed["digest"].append(parts[1])
        elif kind == "span":
            parsed["span"].append({
                "id": int(parts[1]), "parent": int(parts[2]), "name": parts[3],
                "start_s": float(parts[4]), "dur_s": float(parts[5]),
                "self_s": float(parts[6])})
        elif kind == "calls":
            parsed["calls"] = (int(parts[1]), int(parts[2]))
        elif kind == "error":
            parsed["error"].append(" ".join(parts[1:]))
        elif kind == "repeat_mismatch":
            parsed["repeat_mismatch"] = True
    return parsed


def summary(values):
    """(median, q1, q3, n) of the samples."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3, len(values)
    return values[0], values[0], values[0], len(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.time() + RUN_DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build(time.time() + 890.0)  # the first run of a checkout builds
    deadline = max(deadline, time.time() + 150.0)
    build_hash = build_id()
    ensure_population(build_hash, deadline)
    work = prepare(args.workload, args.seed, build_hash, deadline)
    expect, source = reference(args.workload, args.seed, work, deadline)

    out = run_checked([HARNESS, "run", "--workload", args.workload,
                       "--dir", work, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--expect", expect],
                      deadline - time.time(), capture=True)
    result = parse(out)
    attempted, failed = result["calls"]
    if attempted < 1:
        raise RuntimeError("the timed run attempted no mining call")

    record = result["record"]
    record["build_id"] = build_hash
    print("run record: " + ", ".join(
        "%s=%s" % (k, v) for k, v in sorted(record.items())))
    print("seed %d, reference digest %s (%s), result digests %s" % (
        args.seed, expect, source, " ".join(sorted(set(result["digest"])))))
    for error in result["error"]:
        print("error: " + error)
    for name, value in sorted(result["count"].items()):
        print("count %-28s %d" % (name, value))
    print("fail_rate %.6f (%d of %d calls)" % (
        failed / attempted if attempted else 1.0, failed, attempted))

    metrics = {}
    if args.trace == 0:
        for name, (unit, values) in sorted(result["sample"].items()):
            if not values:
                continue
            med, q1, q3, n = summary(values)
            print("%-12s median %.6f q1 %.6f q3 %.6f n %d %s  [%s]" % (
                name, med, q1, q3, n, unit,
                " ".join("%.4f" % v for v in values)))
            if math.isfinite(med):
                metrics[name] = {"value": med, "unit": unit}
        wanted = spec["end_to_end"]
    else:
        spans = result["span"]
        totals = {}
        for span in spans:
            t = totals.setdefault(span["name"], [0, 0.0, 0.0])
            t[0] += 1
            t[1] += span["dur_s"]
            t[2] += span["self_s"]
        print("traced iteration spans (name, count, total s, self s):")
        for name, (n, total, self_s) in sorted(totals.items()):
            print("  %-22s %6d %10.4f %10.4f" % (name, n, total, self_s))
        os.makedirs(os.path.join(BUILD_DIR, "trace"), exist_ok=True)
        with open(os.path.join(BUILD_DIR, "trace", "%s-%d.json" % (
                args.workload, args.seed)), "w") as f:
            json.dump(spans, f)
        for name, (unit, value) in sorted(result["layer"].items()):
            print("layer %-30s %.6f %s" % (name, value, unit))
            if math.isfinite(value):
                metrics[name] = {"value": value, "unit": unit}
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = (attempted > 0 and failed == 0 and not missing
               and not result["repeat_mismatch"] and not result["error"])
    if missing:
        print("missing metrics: " + " ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                    if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as exc:
        log("perfbench: %s" % exc)
        sys.exit(1)
