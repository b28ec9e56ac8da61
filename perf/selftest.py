#!/usr/bin/env python3
"""Self-test of the benchmark: smoke-length runs of every workload.

    python3 perf/selftest.py

Each workload runs for --seconds 1 (a fixed op count: the workload's
nominal ops per second), untraced and traced, through perf/run.py (which
already refuses a result whose metric names or units differ from
BENCHMARK.json). On top of that it checks:

  * no op failed;
  * on the single-client workload (adhoc-net) the program's counters repeat
    exactly across two runs with one seed;
  * every traced span nests inside its parent, and the traced run wrote its
    Chrome trace and its per-layer table.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
WORKLOADS = ["oltp-net", "adhoc-net"]
SINGLE_CLIENT = {"adhoc-net"}
# Counters that are pure functions of the seed and the op count.
REPEATING = {
    0: ["sim_ms_per_op", "space_amp"],
    1: ["storage.gets_per_op", "baav.values_per_op", "storage.comm_kb_per_op",
        "kba.round_trips_per_op"],
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perf" / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            first = run(workload, trace)
            check(first is not None,
                  f"{tag}: runs, and every declared metric has its unit")
            if first is None:
                continue
            check(first["failed"] == 0 and first["attempted"] > 0,
                  f"{tag}: {first['failed']} of {first['attempted']} ops "
                  "failed")
            if trace == 1:
                violations = first["metrics"]["trace.nesting_violations"]
                check(violations["value"] == 0,
                      f"{tag}: spans nest inside their parents")
                stem = f"{workload}-seed{SEED}"
                out = ROOT / ".bench_out"
                check((out / f"trace-{stem}.json").is_file() and
                      (out / f"layers-{stem}.txt").is_file(),
                      f"{tag}: trace and layer table written")
            if workload not in SINGLE_CLIENT:
                continue
            second = run(workload, trace)
            if second is None:
                check(False, f"{tag}: second run")
                continue
            for name in REPEATING[trace]:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                check(a == b, f"{tag}: {name} repeats exactly ({a} vs {b})")
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
