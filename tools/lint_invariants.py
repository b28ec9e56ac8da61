#!/usr/bin/env python3
"""Repo-invariant linter: mechanical enforcement of contracts that live in
prose (docs/ARCHITECTURE.md) but that nothing else checks.

Checks, each a CI failure when violated:

  counters   Every row of the QueryMetrics field table
             (ZIDIAN_QUERY_METRICS_FIELDS in src/common/metrics.h) must
             have a row in the docs/ARCHITECTURE.md glossary table. The
             struct, its merge, CountersEqual and ToString are all
             expanded from that one table, so they cannot drift apart.

  wall-clock Delegated to the AST analyzer (tools/analyze/analyze.py,
             --check wall-clock): wall-clock reads and raw std RNG
             outside the whitelisted metering FUNCTIONS are determinism
             hazards. The old per-file regex lived here; the analyzer
             supersedes it with function-level whitelisting and RNG
             coverage. The delegation fails CLOSED: a missing or
             crashing analyzer is itself a violation, never a silent
             pass. This script stays the single lint entry point.

  mutex      The compile-time locking contract must stay annotatable:
             (a) raw std::mutex (or friends) outside common/mutex.h is
             forbidden — clang's thread-safety analysis cannot see it;
             use the annotated zidian::Mutex;
             (b) every Mutex member must be named by at least one
             GUARDED_BY(...) contract in the same file — a lock that
             guards nothing on record guards nothing at all;
             (c) NO_THREAD_SAFETY_ANALYSIS must not appear in repo
             headers (zero-suppression rule of the thread-safety CI job).

  dispatch   Every data-parallel region in src/ dispatches through the
             free ParallelFor(pool, n, fn) of common/thread_pool.h, which
             runs the chunks on the pool or, without one, in a loop on the
             calling thread. A member call (->ParallelFor( or
             .ParallelFor() outside common/thread_pool.{h,cc} is a second
             dispatch: a hand-rolled "pool, else loop" whose two branches
             can drift apart.

Usage:
  tools/lint_invariants.py             lint the repository (exit 1 on any
                                       violation)
  tools/lint_invariants.py --self-test run the linter against the fixture
                                       trees in tools/lint_fixtures/ and
                                       verify each fails (or passes) for
                                       exactly the expected reason
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# The wall-clock/RNG whitelist moved to tools/analyze/analyze.py
# (WALL_CLOCK_FUNCTIONS): it names FUNCTIONS, not files, so a stray
# clock read added to a formerly-whitelisted file still fails.
ANALYZE_DIR = REPO_ROOT / "tools" / "analyze"
RAW_MUTEX_RE = re.compile(r"\bstd::(recursive_|shared_|timed_|recursive_timed_)?mutex\b")
MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?(?:Shared)?Mutex\s+(\w+)\s*;", re.M)
# The field table's #define and its rows, X(type, name, merge, compare).
FIELD_TABLE_RE = re.compile(
    r"#define ZIDIAN_QUERY_METRICS_FIELDS\(X\)((?:[^\n]*\\\n)*[^\n]*)")
TABLE_ROW_RE = re.compile(r"\bX\(\s*[^,()]+,\s*(\w+)\s*,")
MEMBER_DISPATCH_RE = re.compile(r"(?:->|\.)\s*ParallelFor\s*\(")
DISPATCH_HOME = ("src/common/thread_pool.h", "src/common/thread_pool.cc")


def strip_comments(text):
    """Removes // and /* */ comments so commented-out code never trips a
    check (string literals in this codebase never contain comment
    markers, so a lexer would be overkill)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return text


def src_files(root):
    src = root / "src"
    if not src.is_dir():
        return []
    return sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cc"))


class Violation:
    def __init__(self, check, where, message):
        self.check = check
        self.where = where
        self.message = message

    def __str__(self):
        return f"[{self.check}] {self.where}: {self.message}"


# --------------------------------------------------------------- counters ---

def check_counters(root):
    metrics_h = root / "src" / "common" / "metrics.h"
    glossary_md = root / "docs" / "ARCHITECTURE.md"
    if not metrics_h.is_file():
        return []  # nothing to check in this tree
    table = FIELD_TABLE_RE.search(strip_comments(metrics_h.read_text()))
    fields = TABLE_ROW_RE.findall(table.group(1)) if table else []
    if not fields:
        return [Violation("counters", metrics_h,
                          "could not find the QueryMetrics field table "
                          "(ZIDIAN_QUERY_METRICS_FIELDS)")]
    glossary = glossary_md.read_text() if glossary_md.is_file() else ""
    return [Violation("counters", glossary_md,
                      f"QueryMetrics field '{field}' is missing from the "
                      "docs/ARCHITECTURE.md glossary table")
            for field in fields if f"| `{field}` |" not in glossary]


# -------------------------------------------------------------- wall-clock ---

_ANALYZER_CACHE = {}


def load_analyzer(analyze_dir):
    """Imports tools/analyze/analyze.py by path (cached per directory)."""
    key = str(analyze_dir)
    if key not in _ANALYZER_CACHE:
        import importlib.util
        path = Path(analyze_dir) / "analyze.py"
        if not path.is_file():
            _ANALYZER_CACHE[key] = None
        else:
            spec = importlib.util.spec_from_file_location(
                "zidian_analyze", path)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            _ANALYZER_CACHE[key] = mod
    return _ANALYZER_CACHE[key]


def check_wall_clock(root, analyze_dir=ANALYZE_DIR):
    """Delegates the determinism-source check to the AST analyzer.

    Fails CLOSED: if the analyzer cannot be loaded or crashes, that is a
    violation — the check must never silently pass because its engine
    went missing."""
    try:
        analyze = load_analyzer(analyze_dir)
    except Exception as e:  # noqa: BLE001 — any load failure fails closed
        return [Violation(
            "wall-clock", Path(analyze_dir) / "analyze.py",
            f"analyzer failed to load ({e}) — the wall-clock check "
            "cannot run; failing closed")]
    if analyze is None:
        return [Violation(
            "wall-clock", Path(analyze_dir) / "analyze.py",
            "analyzer missing — the wall-clock check cannot run; "
            "failing closed")]
    try:
        findings = analyze.run_checks(Path(root), ("wall-clock",),
                                      frontend="auto", quiet=True)
    except Exception as e:  # noqa: BLE001
        return [Violation(
            "wall-clock", Path(analyze_dir) / "analyze.py",
            f"analyzer crashed ({e}) — failing closed")]
    return [Violation("wall-clock", f"{f.file}:{f.line}", f.message)
            for f in findings]


# ------------------------------------------------------------------- mutex ---

def check_mutex(root):
    violations = []
    for path in src_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())

        if rel != "src/common/mutex.h":
            for lineno, line in enumerate(text.splitlines(), start=1):
                if RAW_MUTEX_RE.search(line):
                    violations.append(Violation(
                        "mutex", f"{rel}:{lineno}",
                        "raw std::mutex — the thread-safety analysis "
                        "cannot see it; use the annotated zidian::Mutex "
                        "(common/mutex.h)"))

        for m in MUTEX_MEMBER_RE.finditer(text):
            name = m.group(1)
            if not re.search(rf"GUARDED_BY\(\s*{re.escape(name)}\s*\)", text):
                lineno = text[:m.start()].count("\n") + 1
                violations.append(Violation(
                    "mutex", f"{rel}:{lineno}",
                    f"Mutex member '{name}' has no GUARDED_BY({name}) "
                    "contract on any field — declare what it protects"))

        if path.suffix == ".h" and "NO_THREAD_SAFETY_ANALYSIS" in text \
                and rel != "src/common/thread_annotations.h":
            violations.append(Violation(
                "mutex", rel,
                "NO_THREAD_SAFETY_ANALYSIS in a header — suppressions "
                "are forbidden in repo headers"))
    return violations


# ---------------------------------------------------------------- dispatch ---

def check_dispatch(root):
    violations = []
    for path in src_files(root):
        rel = path.relative_to(root).as_posix()
        if rel in DISPATCH_HOME:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if MEMBER_DISPATCH_RE.search(line):
                violations.append(Violation(
                    "dispatch", f"{rel}:{lineno}",
                    "member ParallelFor call — dispatch through the free "
                    "ParallelFor(pool, n, fn) (common/thread_pool.h)"))
    return violations


# --------------------------------------------------------------- self-test ---

# Fixture tree -> the exact set of check names that must report at least
# one violation there (empty set = the fixture must pass clean).
FIXTURES = {
    "clean": frozenset(),
    "undocumented_fault_counter": frozenset({"counters"}),
    "stray_wall_clock": frozenset({"wall-clock"}),
    "unannotated_mutex": frozenset({"mutex"}),
    "raw_std_mutex": frozenset({"mutex"}),
    "stray_pool_dispatch": frozenset({"dispatch"}),
}


def run_checks(root):
    return (check_counters(root) + check_wall_clock(root) + check_mutex(root)
            + check_dispatch(root))


def self_test():
    fixtures_dir = REPO_ROOT / "tools" / "lint_fixtures"
    failures = 0
    for name, expected in sorted(FIXTURES.items()):
        tree = fixtures_dir / name
        if not tree.is_dir():
            print(f"self-test FAIL: fixture '{name}' missing at {tree}")
            failures += 1
            continue
        got = frozenset(v.check for v in run_checks(tree))
        if got == expected:
            verdict = "fails as intended" if expected else "passes clean"
            print(f"self-test ok: {name} {verdict}")
        else:
            print(f"self-test FAIL: {name}: expected violations from "
                  f"{sorted(expected) or 'no check'}, got "
                  f"{sorted(got) or 'none'}")
            for v in run_checks(tree):
                print(f"    {v}")
            failures += 1

    # Delegation must fail CLOSED: pointing the wall-clock check at a
    # directory with no analyze.py must be a violation, never a pass.
    missing = fixtures_dir / "no_such_analyzer"
    if check_wall_clock(fixtures_dir / "clean", analyze_dir=missing):
        print("self-test ok: missing analyzer fails closed")
    else:
        print("self-test FAIL: missing analyzer silently passed "
              "the wall-clock check")
        failures += 1

    # Delegation transparency: the stray_wall_clock verdict must come
    # FROM the analyzer. Swapping in the hollow stub (which never finds
    # anything) must flip the verdict — together with the
    # stray_wall_clock case above, this proves an analyzer that stops
    # finding things fails this self-test rather than passing silently.
    hollow = fixtures_dir / "hollow_analyzer"
    if check_wall_clock(fixtures_dir / "stray_wall_clock",
                        analyze_dir=hollow):
        print("self-test FAIL: hollow analyzer produced violations "
              "(delegation is not consulting the analyzer)")
        failures += 1
    else:
        print("self-test ok: verdict flows from the analyzer "
              "(hollow stub finds nothing)")

    # The analyzer's own fixture battery is part of this contract: a
    # silently-dead AST check must fail the lint self-test too.
    analyze = load_analyzer(ANALYZE_DIR)
    if analyze is None or not analyze.self_test("auto"):
        print("self-test FAIL: tools/analyze fixture battery")
        failures += 1

    return failures == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against its fixtures")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to lint (default: the repository)")
    args = parser.parse_args()

    if args.self_test:
        ok = self_test()
        print("lint_invariants self-test:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    violations = run_checks(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
