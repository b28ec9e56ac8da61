#!/usr/bin/env python3
"""AST-level determinism & error-discipline analyzer for the zidian tree.

Four project-specific checks, each enforcing a contract that used to live
in prose (docs/ARCHITECTURE.md) or in a per-line regex whitelist:

  discarded-status   A call whose zidian::Status / Result<T> /
                     MultiGetResult return value is unused is an error —
                     including `(void)` casts (use ZIDIAN_CHECK_OK or
                     handle it; an explicitly shrugged-off error is still
                     a dropped error). The compiler enforces the same
                     contract via [[nodiscard]] + -Werror; this check
                     covers trees and fixtures no compiler runs over and
                     rejects the `(void)` escape hatch the compiler
                     accepts.

  nondet-iteration   A range-for (or iterator loop) over a
                     std::unordered_map / std::unordered_set whose body
                     feeds an ORDERED sink — result rows (.push_back /
                     .emplace_back / .Add), QueryMetrics accumulation
                     (+=) or stream output (<<) — is nondeterministic
                     output order by construction. Only the named
                     canonical-ordering helpers (ITERATION_WHITELIST) may
                     do this: each restores a canonical order (sort by
                     first appearance) or is proven order-insensitive by
                     the parity suites.

  wall-clock         Wall-clock reads (steady_clock / system_clock /
                     high_resolution_clock / ::time / gettimeofday /
                     clock_gettime) may only appear in the whitelisted
                     FUNCTIONS (WALL_CLOCK_FUNCTIONS — the wall_*
                     metering sites and the physical stall machinery).
                     Unlike the retired regex check, the whitelist names
                     functions, not files: a new clock read slipped into
                     a whitelisted FILE still fails. Seedless / std RNG
                     construction (std::mt19937, std::random_device,
                     rand, ...) is banned everywhere outside
                     src/common/rng.h — all randomness must flow through
                     the seeded zidian::Rng.

  locked-helper      A *Locked() function must carry a REQUIRES(...)
                     capability annotation on at least one declaration,
                     and may only be called from a context that can hold
                     the lock: another *Locked() function, a function
                     whose declaration carries REQUIRES/ACQUIRE, or a
                     body that takes a MutexLock / lock() before the
                     call.

Driving the file set:

  The analyzer is driven off CMake's compile_commands.json export
  (CMAKE_EXPORT_COMPILE_COMMANDS, on in every preset): the analyzed .cc
  set is exactly what the build compiles, restricted to src/, plus every
  header under src/. Without a compile database (fixture trees, fresh
  checkouts) it falls back to scanning src/**/*.{h,cc} and says so.

Frontends:

  libclang   (preferred) — real AST via clang.cindex, pinned in CI
             (see .github/workflows/ci.yml: python3-clang +
             libclang). Accurate callee return types, range-for types
             and lambda attribution.
  builtin    dependency-free syntactic frontend (lexer + declaration
             index + brace-matched function spans) implementing the same
             checks; used automatically when clang.cindex is not
             importable so the checks run on any machine. Its one
             documented concession: a discarded call is only flagged
             when the callee NAME unambiguously returns a status-like
             type across the whole tree (the compiler's [[nodiscard]]
             remains the authoritative backstop for the ambiguous rest).

Usage:
  tools/analyze/analyze.py                      analyze the repository
  tools/analyze/analyze.py --root DIR           analyze another tree
  tools/analyze/analyze.py --check NAME         run one check only
  tools/analyze/analyze.py --frontend builtin   force a frontend
  tools/analyze/analyze.py --self-test          run every fixture tree in
                                                tools/analyze/fixtures/ and
                                                verify each fails (or
                                                passes) for exactly its
                                                expected reason
Exit status: 0 clean, 1 findings (or failed self-test), 2 usage/setup.
"""

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

CHECKS = ("discarded-status", "nondet-iteration", "wall-clock",
          "locked-helper")

# ---------------------------------------------------------------------------
# Whitelists. Entries name FUNCTIONS (optionally Class::qualified), keyed by
# repo-relative file, so a new violation in a blessed file still fails and a
# renamed function invalidates its own entry.
# ---------------------------------------------------------------------------

# Functions allowed to read the wall clock, and why. These are the same
# sites the retired regex whitelist blessed per-FILE; the function names
# pin them down.
WALL_CLOCK_FUNCTIONS = {
    # Phase timing stamps for the nondeterministic wall_* metrics.
    "src/kba/kba_executor.cc": {
        "SecondsSince",   # the shared now()->seconds helper
        "Eval",           # per-operator wall_fetch/wall_compute stamps
        "EvalRound",      # wall_fetch stamps around a round's fetch+emit
    },
    "src/ra/taav.cc": {
        "TaavScanTable",  # wall_fetch stamps around the get+decode stage
        "Execute",        # wall_compute stamps around filters/joins/agg
    },
    # wall_seconds around the whole PreparedQuery::Execute().
    "src/zidian/connection.cc": {"Execute"},
    # The physical stall machinery: stalls are real sleeps by design;
    # everything *metered* there is integer arithmetic on virtual clocks.
    # NowNs is the single now()->ns funnel; the constructor stamps epoch_.
    "src/storage/network_model.cc": {"NowNs", "NetworkModel"},
    # The serving layer measures the machine on purpose: open-loop
    # arrival pacing and wall latency stamps into the LatencyRecorder
    # (documented nondeterministic; never a QueryMetrics counter). NowNs
    # is its single clock funnel.
    "src/serve/server.cc": {"NowNs"},
}

# Canonical-ordering helpers: the only functions allowed to iterate an
# unordered container into an ordered sink. Each entry documents how the
# order becomes canonical again.
ITERATION_WHITELIST = {
    # Partition fan-out: EmitExtension re-keys an extension's rows per
    # worker, and the parity suite (test_parallel_exec, 100x @ 8 workers)
    # proves rows AND counters are byte-identical across modes — both
    # modes walk this same map in the same order within a process.
    "src/kba/kba_executor.cc": {"EmitExtension"},
    # First-appearance emit: collects the merged hash table, then sorts
    # by first-appearance row index before anything escapes.
    "src/ra/eval.cc": {"GroupAggregate"},
    # Snapshot iterator: collects the hash map, then sorts by key (the
    # per-node key-order scan contract).
    "src/storage/mem_backend.cc": {"NewIterator"},
}

# The one file allowed to construct raw randomness.
RNG_HOME = "src/common/rng.h"

CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|(?<!\w)::time\s*\(")
RNG_RE = re.compile(
    r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|"
    r"random_device|knuth_b|ranlux\w+)\b|(?<!\w)s?rand\s*\(")

STATUS_TYPES = ("Status", "Result", "MultiGetResult")

# Ordered sinks: writes whose ORDER is observable downstream.
SINK_RE = re.compile(r"\.(push_back|emplace_back|Add)\s*\(|\+=|<<")


class Finding:
    def __init__(self, check, file, line, message):
        self.check = check
        self.file = file  # repo-relative posix path
        self.line = line
        self.message = message

    def __str__(self):
        return f"[{self.check}] {self.file}:{self.line}: {self.message}"


# ---------------------------------------------------------------------------
# Shared lexing helpers (builtin frontend)
# ---------------------------------------------------------------------------

def blank_noncode(text):
    """Replaces comments and string/char literal CONTENTS with spaces,
    preserving every line break and column so line numbers and brace
    matching survive. Handles //, /* */, "..." with escapes, '...'."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n) - i - 1) +
                       (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


FUNC_HEAD_RE = re.compile(
    r"^[ \t]*(?:template\s*<[^\n]*>\s*\n)?"
    r"[ \t]*(?!else\b|return\b|delete\b|new\b|case\b|throw\b|do\b)"
    r"(?:[\w:&*<>,~\[\]= \t]+[ \t&*])?"           # return type (optional)
    r"(?P<name>~?[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*)"
    r"[ \t]*\((?P<params>[^;{}]*)\)"               # parameter list
    r"(?P<trail>[^;{}()]*)\{",                     # const, annotations...
    re.M)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "return", "sizeof", "alignof", "decltype", "new"}


def match_brace(text, open_pos):
    """Index just past the `}` matching the `{` at open_pos (text must be
    blank_noncode'd)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


class FunctionSpan:
    def __init__(self, name, qname, head_start, body_start, body_end, head):
        self.name = name          # unqualified
        self.qname = qname        # Class::name when resolvable
        self.head_start = head_start
        self.body_start = body_start  # position of '{'
        self.body_end = body_end      # position just past '}'
        self.head = head              # declaration head text


def find_functions(clean):
    """Brace-matched function-definition spans in blank_noncode'd text.
    Good enough for this codebase's clang-format-shaped sources; the
    libclang frontend supersedes it where available."""
    spans = []
    for m in FUNC_HEAD_RE.finditer(clean):
        name = m.group("name")
        base = name.split("::")[-1]
        if base in CONTROL_KEYWORDS:
            continue
        # Reject control-flow that parses like a call: `if (x) {`.
        before = clean[max(0, m.start() - 64):m.start()]
        if before.rstrip().endswith(("=", "return", ",", "(", "?")):
            continue
        open_pos = m.end() - 1
        end = match_brace(clean, open_pos)
        spans.append(FunctionSpan(base, name, m.start(), open_pos, end,
                                  m.group(0)))
    return spans


def enclosing_function(spans, pos):
    """Innermost function span containing pos (lambdas inside a function
    body attribute to that function)."""
    best = None
    for s in spans:
        if s.head_start <= pos < s.body_end:
            if best is None or s.head_start > best.head_start:
                best = s
    return best


# ---------------------------------------------------------------------------
# File-set discovery
# ---------------------------------------------------------------------------

def discover_files(root, compile_db, quiet=False):
    """Returns sorted repo-relative paths to analyze: the compile DB's .cc
    entries under src/ plus every header under src/; falls back to a full
    src/ scan when no database is available."""
    src = root / "src"
    files = set()
    db_used = False
    if compile_db is not None and compile_db.is_file():
        try:
            entries = json.loads(compile_db.read_text())
        except (ValueError, OSError):
            entries = None
        if entries is not None:
            db_used = True
            for e in entries:
                f = Path(e.get("file", ""))
                if not f.is_absolute():
                    f = Path(e.get("directory", ".")) / f
                try:
                    rel = f.resolve().relative_to(root.resolve())
                except ValueError:
                    continue
                if rel.as_posix().startswith("src/"):
                    files.add(rel.as_posix())
    if src.is_dir():
        for p in src.rglob("*.h"):
            files.add(p.relative_to(root).as_posix())
        if not db_used:
            for p in src.rglob("*.cc"):
                files.add(p.relative_to(root).as_posix())
    if not db_used and not quiet:
        print("analyze: no compile_commands.json "
              "(run `cmake --preset default` to export one); "
              "falling back to a full src/ scan", file=sys.stderr)
    return sorted(files)


# ---------------------------------------------------------------------------
# Builtin frontend: per-file model + global indexes
# ---------------------------------------------------------------------------

class FileModel:
    def __init__(self, rel, text):
        self.rel = rel
        self.text = text
        self.clean = blank_noncode(text)
        self.functions = find_functions(self.clean)
        self.class_spans = self._find_class_spans()

    def _find_class_spans(self):
        spans = []
        for m in re.finditer(r"\b(?:class|struct)\s+(?:\[\[\w+\]\]\s+)?"
                             r"([A-Za-z_]\w*)[^;{()]*\{", self.clean):
            spans.append((m.group(1), m.end() - 1,
                          match_brace(self.clean, m.end() - 1)))
        return spans

    def qualify(self, span):
        if "::" in span.qname:
            return span.qname
        for name, start, end in self.class_spans:
            if start <= span.head_start < end:
                return f"{name}::{span.name}"
        return span.name


DECL_RE = re.compile(
    r"\b(?:static\s+|virtual\s+)*(?:zidian::)?"
    r"(?P<type>Status|Result\s*<|MultiGetResult)\s*"
    r"(?:<[^;{}]*>\s*)?"
    r"(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*\(")

ANY_DECL_RE = re.compile(
    r"^[ \t]*(?:static\s+|virtual\s+|inline\s+|constexpr\s+|explicit\s+)*"
    r"(?P<type>[A-Za-z_][\w:]*(?:\s*<[^;{}=]*>)?[&*\s]+)"
    r"(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*\((?![^)]*\bDISALLOW)",
    re.M)


def build_status_index(models):
    """Maps function name -> True when EVERY declaration of that name in
    the tree returns Status/Result/MultiGetResult (unambiguous), False
    when the name also has non-status-returning declarations."""
    status_names = set()
    other_names = set()
    for fm in models:
        for m in DECL_RE.finditer(fm.clean):
            status_names.add(m.group("name"))
        for m in ANY_DECL_RE.finditer(fm.clean):
            t = m.group("type").strip()
            if not any(t.startswith(st) or t.startswith("zidian::" + st)
                       for st in STATUS_TYPES):
                other_names.add(m.group("name"))
    return {n: (n not in other_names) for n in status_names}


STMT_CALL_RE = re.compile(
    r"^(?P<cast>\(void\)\s*)?"
    r"(?P<chain>[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*"
    r"(?:\([^;]*\)\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*\(")


def iter_statements(clean, body_start, body_end):
    """Yields (pos, stmt_text) for top-level-ish statements inside a
    function body: splits on ';' outside parens/braces one level deep is
    overkill — instead split on ';' tracking paren depth only (block
    braces reset nothing a call statement cares about)."""
    i = body_start + 1
    stmt_begin = i
    paren = 0
    while i < body_end:
        c = clean[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c in "{}" and paren == 0:
            stmt_begin = i + 1
        elif c == ";" and paren == 0:
            stmt = clean[stmt_begin:i].strip()
            if stmt:
                yield stmt_begin + (len(clean[stmt_begin:i]) -
                                    len(clean[stmt_begin:i].lstrip())), stmt
            stmt_begin = i + 1
        i += 1


def check_discarded_status(models, status_index):
    findings = []
    for fm in models:
        for span in fm.functions:
            for pos, stmt in iter_statements(fm.clean, span.body_start,
                                             span.body_end):
                m = STMT_CALL_RE.match(stmt)
                if m is None:
                    continue
                # Assignment / return / comparison before the call means
                # the value is consumed.
                if re.search(r"[=<>!]|^\s*return\b", stmt.split("(")[0]):
                    continue
                callee = m.group("chain").split(".")[-1]
                callee = callee.split("->")[-1].split("::")[-1]
                unambiguous = status_index.get(callee)
                if not unambiguous:
                    continue
                # The statement must BE the call (nothing consuming it
                # after the closing paren, e.g. `.ok()`).
                depth = 0
                end = None
                for j, ch in enumerate(stmt[m.end() - 1:], start=m.end() - 1):
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            end = j
                            break
                if end is None or stmt[end + 1:].strip():
                    continue
                line = line_of(fm.clean, pos)
                how = ("explicitly (void)-discarded" if m.group("cast")
                       else "ignored")
                findings.append(Finding(
                    "discarded-status", fm.rel, line,
                    f"return value of '{callee}' (Status/Result) is {how} "
                    "— handle it, propagate it, or assert it with "
                    "ZIDIAN_CHECK_OK"))
    return findings


USING_UNORDERED_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*[^;]*\bunordered_(?:map|set)\b")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto[^:;()]*:\s*([^)]+)\)\s*(\{?)")


def unordered_vars_in(clean, start, end, aliases):
    """Variable names declared in [start, end) with an unordered type (or
    an alias of one, or a vector<unordered> whose elements are)."""
    seg = clean[start:end]
    direct, element = set(), set()
    alias_pat = "|".join(re.escape(a) for a in aliases) or r"(?!x)x"
    decl = re.compile(
        r"\b(?:std::)?unordered_(?:map|set)\s*<[^;{}]*>\s+([A-Za-z_]\w*)"
        r"|\b(" + alias_pat + r")\s+([A-Za-z_]\w*)\s*[;({=]"
        r"|\bstd::vector\s*<\s*(?:std::)?(?:unordered_(?:map|set)\s*<[^;]*>|"
        + alias_pat + r")\s*>\s+([A-Za-z_]\w*)")
    for m in decl.finditer(seg):
        if m.group(1):
            direct.add(m.group(1))
        elif m.group(3):
            direct.add(m.group(3))
        elif m.group(4):
            element.add(m.group(4))
    return direct, element


def check_nondet_iteration(models):
    findings = []
    # Aliases are collected tree-wide (GroupMap lives inside functions).
    aliases = set()
    for fm in models:
        for m in USING_UNORDERED_RE.finditer(fm.clean):
            aliases.add(m.group(1))
    for fm in models:
        allowed = ITERATION_WHITELIST.get(fm.rel, set())
        # File-scope (incl. class members): unordered names visible to
        # every function in the file. Function bodies are masked out —
        # a local in one function must not leak its classification onto
        # a same-named local in another.
        masked = list(fm.clean)
        for span in fm.functions:
            for i in range(span.head_start, span.body_end):
                if masked[i] not in "\n":
                    masked[i] = " "
        file_direct, file_element = unordered_vars_in(
            "".join(masked), 0, len(fm.clean), aliases)
        for span in fm.functions:
            fn_direct, fn_element = unordered_vars_in(
                fm.clean, span.head_start, span.body_end, aliases)
            for m in RANGE_FOR_RE.finditer(
                    fm.clean, span.body_start, span.body_end):
                # Only this function's own loops (not nested lambdas' —
                # those still lie within the span, which is what we want).
                inner = enclosing_function(fm.functions, m.start())
                if inner is not span:
                    continue
                expr = m.group(1).strip()
                base = re.match(r"([A-Za-z_]\w*)", expr)
                if base is None:
                    continue
                var = base.group(1)
                indexed = re.match(r"[A-Za-z_]\w*\s*\[", expr) is not None
                unordered = (
                    (var in fn_direct and not indexed)
                    or (var in fn_element and indexed)
                    # File-scope names only count when the function
                    # doesn't shadow them.
                    or (var in file_direct and not indexed
                        and var not in fn_direct and var not in fn_element)
                    or (var in file_element and indexed
                        and var not in fn_direct and var not in fn_element))
                if not unordered:
                    continue
                # Loop body: brace block or single statement.
                if m.group(2) == "{":
                    body_end = match_brace(fm.clean, m.end() - 1)
                    body = fm.clean[m.end():body_end]
                else:
                    semi = fm.clean.find(";", m.end())
                    body = fm.clean[m.end():semi if semi > 0 else m.end()]
                if SINK_RE.search(body) is None:
                    continue
                if fm.qualify(span).split("::")[-1] in allowed:
                    continue
                findings.append(Finding(
                    "nondet-iteration", fm.rel, line_of(fm.clean, m.start()),
                    f"iteration over unordered container '{var}' feeds an "
                    "ordered sink (push_back/Add/+=/<<) in "
                    f"'{fm.qualify(span)}' — emit via a canonical order "
                    "(first-appearance sort) or whitelist the helper in "
                    "tools/analyze/analyze.py with a written reason"))
    return findings


def check_wall_clock(models):
    findings = []
    for fm in models:
        allowed = WALL_CLOCK_FUNCTIONS.get(fm.rel, set())
        for m in CLOCK_RE.finditer(fm.clean):
            span = enclosing_function(fm.functions, m.start())
            fname = span.name if span else "<file scope>"
            if span is not None and fname in allowed:
                continue
            token = m.group(0).strip().rstrip("(").strip()
            findings.append(Finding(
                "wall-clock", fm.rel, line_of(fm.clean, m.start()),
                f"wall-clock read ({token}) in '{fname}' — only the "
                "whitelisted wall_* metering functions may touch the "
                "clock (clock-derived values break the deterministic "
                "kSimulated/kThreads counter contract)"))
        if fm.rel == RNG_HOME:
            continue
        for m in RNG_RE.finditer(fm.clean):
            span = enclosing_function(fm.functions, m.start())
            fname = span.name if span else "<file scope>"
            token = m.group(0).strip().rstrip("(").strip()
            findings.append(Finding(
                "wall-clock", fm.rel, line_of(fm.clean, m.start()),
                f"raw RNG ({token}) in '{fname}' — all randomness flows "
                "through the seeded zidian::Rng (common/rng.h); an "
                "unseeded or platform-entropy source is nondeterminism "
                "by construction"))
    return findings


LOCKED_DEF_RE = re.compile(r"\b([A-Za-z_]\w*Locked)\s*\(")
LOCK_ACQ_RE = re.compile(
    r"\bMutexLock\b|\bReaderMutexLock\b|\block_guard\b|\bunique_lock\b|"
    r"\bscoped_lock\b|\.lock\s*\(|->Lock\s*\(|\.Lock\s*\(")


def check_locked_helper(models):
    findings = []
    # Pass 1: which *Locked names carry REQUIRES on some declaration?
    annotated = set()
    declared = {}
    for fm in models:
        for m in LOCKED_DEF_RE.finditer(fm.clean):
            name = m.group(1)
            declared.setdefault(name, (fm.rel, line_of(fm.clean, m.start())))
            # Annotation lives between the ')' of the param list and the
            # ';' or '{' that ends the declarator.
            depth = 0
            j = m.end() - 1
            while j < len(fm.clean):
                if fm.clean[j] == "(":
                    depth += 1
                elif fm.clean[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            tail_end = len(fm.clean)
            for stop in (";", "{"):
                k = fm.clean.find(stop, j)
                if k >= 0:
                    tail_end = min(tail_end, k)
            if "REQUIRES" in fm.clean[j:tail_end]:
                annotated.add(name)
    for name, (rel, line) in sorted(declared.items()):
        if name not in annotated:
            findings.append(Finding(
                "locked-helper", rel, line,
                f"'{name}' has no REQUIRES(...) annotation on any "
                "declaration — a *Locked helper whose lock is not on "
                "record is unverifiable (thread_annotations.h)"))
    # Pass 2: call-site discipline.
    for fm in models:
        for span in fm.functions:
            body = fm.clean[span.body_start:span.body_end]
            for m in LOCKED_DEF_RE.finditer(body):
                name = m.group(1)
                if name not in declared:
                    continue
                if span.name == name or span.name.endswith("Locked"):
                    continue  # definition itself / locked-to-locked
                head_ok = ("REQUIRES" in span.head or
                           "ACQUIRE" in span.head)
                holds_lock = LOCK_ACQ_RE.search(body[:m.start()]) is not None
                if head_ok or holds_lock:
                    continue
                findings.append(Finding(
                    "locked-helper", fm.rel,
                    line_of(fm.clean, span.body_start + m.start()),
                    f"call of '{name}' from '{fm.qualify(span)}' which "
                    "neither holds a MutexLock, is itself *Locked, nor "
                    "declares REQUIRES/ACQUIRE — the capability contract "
                    "cannot hold"))
    return findings


# ---------------------------------------------------------------------------
# Frontends
# ---------------------------------------------------------------------------

def run_builtin(root, files, checks):
    models = []
    for rel in files:
        p = root / rel
        try:
            models.append(FileModel(rel, p.read_text(errors="replace")))
        except OSError:
            continue
    status_index = build_status_index(models)
    findings = []
    if "discarded-status" in checks:
        findings += check_discarded_status(models, status_index)
    if "nondet-iteration" in checks:
        findings += check_nondet_iteration(models)
    if "wall-clock" in checks:
        findings += check_wall_clock(models)
    if "locked-helper" in checks:
        findings += check_locked_helper(models)
    return findings


def libclang_available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def run_libclang(root, files, checks, compile_db):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import clang_frontend
    return clang_frontend.run(root, files, checks, compile_db, Finding,
                              wall_clock_whitelist=WALL_CLOCK_FUNCTIONS,
                              iteration_whitelist=ITERATION_WHITELIST,
                              rng_home=RNG_HOME,
                              clock_re=CLOCK_RE, rng_re=RNG_RE,
                              sink_re=SINK_RE)


def run_checks(root, checks, frontend="auto", compile_db=None, quiet=False):
    root = Path(root)
    if compile_db is None:
        default_db = root / "build" / "compile_commands.json"
        compile_db = default_db if default_db.is_file() else None
    files = discover_files(root, compile_db, quiet=quiet)
    if frontend == "auto":
        frontend = "libclang" if libclang_available() else "builtin"
        if frontend == "builtin" and not quiet:
            print("analyze: clang.cindex not importable — using the "
                  "builtin syntactic frontend (CI runs the libclang one)",
                  file=sys.stderr)
    if frontend == "libclang":
        return run_libclang(root, files, checks, compile_db)
    return run_builtin(root, files, checks)


# ---------------------------------------------------------------------------
# Self-test over fixture trees
# ---------------------------------------------------------------------------

# Fixture tree -> exact set of checks that must report >= 1 finding there
# (empty set: the fixture must pass clean).
FIXTURES = {
    "clean": frozenset(),
    "discarded_status": frozenset({"discarded-status"}),
    "void_cast_status": frozenset({"discarded-status"}),
    "unordered_iteration": frozenset({"nondet-iteration"}),
    "stray_wall_clock": frozenset({"wall-clock"}),
    "seedless_rng": frozenset({"wall-clock"}),
    "locked_no_requires": frozenset({"locked-helper"}),
    "locked_call_unlocked": frozenset({"locked-helper"}),
}


def self_test(frontend):
    fixtures_dir = Path(__file__).resolve().parent / "fixtures"
    failures = 0
    for name, expected in sorted(FIXTURES.items()):
        tree = fixtures_dir / name
        if not tree.is_dir():
            print(f"self-test FAIL: fixture '{name}' missing at {tree}")
            failures += 1
            continue
        findings = run_checks(tree, CHECKS, frontend=frontend, quiet=True)
        got = frozenset(f.check for f in findings)
        if got == expected:
            verdict = ("fails as intended ["
                       + ", ".join(sorted(expected)) + "]") if expected \
                else "passes clean"
            print(f"self-test ok: {name} {verdict}")
        else:
            print(f"self-test FAIL: {name}: expected findings from "
                  f"{sorted(expected) or 'no check'}, got "
                  f"{sorted(got) or 'none'}")
            for f in findings:
                print(f"    {f}")
            failures += 1
    return failures == 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to analyze (default: the repository)")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--check", action="append", choices=CHECKS,
                        help="run only this check (repeatable; "
                             "default: all)")
    parser.add_argument("--frontend", choices=("auto", "libclang", "builtin"),
                        default="auto")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the analyzer against its fixtures")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0
    if args.self_test:
        ok = self_test(args.frontend)
        print("analyze self-test:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    checks = tuple(args.check) if args.check else CHECKS
    try:
        findings = run_checks(args.root, checks, frontend=args.frontend,
                              compile_db=args.compile_db)
    except RuntimeError as e:
        # Frontend setup failure (e.g. libclang not loadable), not a
        # verdict about the tree.
        print(f"analyze: setup error: {e}", file=sys.stderr)
        return 2
    for f in sorted(findings, key=lambda f: (f.file, f.line)):
        print(f)
    if findings:
        print(f"analyze: {len(findings)} finding(s)")
        return 1
    print(f"analyze: OK ({', '.join(checks)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
