#!/usr/bin/env python3
"""Compares the deterministic paper benches' stdout with committed copies.

Runs each bench in BENCHES from a build directory, with the
ZIDIAN_BLOCK_CACHE_BYTES switch removed from its environment (the goldens
are the uncached run), and compares its stdout byte for byte with
bench/golden/<bench>.txt. Every number these benches print is modeled or
counted, never measured, so any difference is a change in behaviour: the
script prints a unified diff per differing bench and exits 1. With
--update it rewrites the golden files from the current build instead; a
change that moves these numbers commits the new files and says why in
CHANGES.md.

Usage: python3 tools/bench_golden.py [--build-dir build] [--update]
Exit status: 0 when every bench matches (or was updated), 1 otherwise.
"""
import argparse
import difflib
import os
import subprocess
import sys

BENCHES = [
    "bench_table2_case_study",
    "bench_table3_overall",
    "bench_fig3_scanfree",
    "bench_ablation_blocks",
    "bench_exp4_throughput",
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "bench", "golden")


def run_bench(build_dir, bench):
    env = dict(os.environ)
    env.pop("ZIDIAN_BLOCK_CACHE_BYTES", None)
    proc = subprocess.run([os.path.join(build_dir, bench)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{bench} exited with status {proc.returncode}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"),
                        help="directory holding the bench binaries")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden files from this build")
    args = parser.parse_args()

    failed = []
    for bench in BENCHES:
        golden_path = os.path.join(GOLDEN_DIR, bench + ".txt")
        try:
            actual = run_bench(args.build_dir, bench)
        except (OSError, RuntimeError) as err:
            print(f"FAIL {bench}: {err}")
            failed.append(bench)
            continue
        if args.update:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(golden_path, "w", encoding="utf-8") as f:
                f.write(actual)
            print(f"updated {os.path.relpath(golden_path, ROOT)}")
            continue
        try:
            with open(golden_path, encoding="utf-8") as f:
                expected = f.read()
        except OSError as err:
            print(f"FAIL {bench}: no golden file ({err})")
            failed.append(bench)
            continue
        if actual == expected:
            print(f"ok   {bench}")
            continue
        print(f"FAIL {bench}: stdout differs from "
              f"{os.path.relpath(golden_path, ROOT)}")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{bench}.txt", tofile=f"{bench} (this build)"))
        failed.append(bench)
    if failed:
        print(f"{len(failed)} bench(es) differ: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
