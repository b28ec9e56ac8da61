#!/usr/bin/env python3
"""Runs one workload of the Zidian benchmark and prints its result.

    python3 perf/run.py --workload oltp-net --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
perf/ (the benchmark program zbench plus the program's sources) into
.bench_build; later runs only rebuild what changed. zbench's result -- one
JSON object with "correct", "attempted", "failed" and "metrics" -- is
checked against the metric names and units declared in BENCHMARK.json and
printed as the last line of standard output. Any failure (build, answer
check, missing metric) exits non-zero without printing a result.

--trace 1 additionally writes a Chrome trace and a per-layer table to
.bench_out/.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = ROOT / ".bench_build" / "perf"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "zbench"


def fail(message):
    print(f"perf/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; serialized by a lock."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("building the benchmark failed: " + " ".join(step))


def declared_metrics(trace):
    """(name -> unit) of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("zbench's last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: " + ", ".join(sorted(result)))
    if result["correct"] is not True:
        fail("the answer check failed")
    if result["attempted"] < 1:
        fail("no ops attempted")
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}"
             f", declared {sorted(want.items())}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if "ZIDIAN_BLOCK_CACHE_BYTES" in os.environ:
        fail("refusing to run with ZIDIAN_BLOCK_CACHE_BYTES set: it attaches "
             "a BlockCache to clusters configured without one")
    if not (ROOT / "BENCHMARK.json").exists():
        fail("BENCHMARK.json not found at " + str(ROOT))
    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(OUT)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"zbench exited with code {done.returncode}")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
