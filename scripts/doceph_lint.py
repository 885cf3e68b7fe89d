#!/usr/bin/env python3
"""doceph_lint: repo-specific concurrency/observability invariants.

Rules (each finding prints as `path:line: [rule] message`):

  bare-mutex      A bare std::mutex / std::condition_variable /
                  std::shared_mutex DECLARATION in product code (src/)
                  outside the substrate (src/dbg/, src/sim/). Everything
                  above the substrate must use dbg::Mutex/dbg::SharedMutex/
                  dbg::CondVar so lockdep and the Clang thread-safety
                  annotations see it. Justified exceptions carry an inline
                  waiver on the same line:
                      std::mutex m;  // doceph-lint: allow(bare-mutex) <reason>
                  tests/ and bench/ are exempt by design: harness locals
                  there synchronize with unregistered gtest threads, where
                  the sim-time dbg::CondVar cannot be used.

  native          dbg::Mutex::native() escapes the instrumented API; it is
                  reserved for the condvar substrate (src/dbg/,
                  src/sim/time_keeper.*). No waiver.

  fault-point     A FaultRegistry point name used at a call site
                  (should_fire/hit/set/fire_next/clear/hits/fires) that is
                  not declared in src/common/fault_points.h. A typo here
                  arms or probes a point nothing ever consults — it fails
                  lint instead of silently never firing.

  trace-point     A span-name literal passed to Tracer::span()/record_span()
                  that is not declared in src/common/trace_points.h. A typo
                  here produces an orphan span that silently fractures the
                  op's span tree — it fails lint instead.

  counter-range   Two perf-counter enum blocks (`l_X_first = N ... l_X_last`)
                  whose index ranges overlap. Blocks are spaced in 1000-wide
                  decades (msgr 90000, osd 91000, ...); an overlap would let
                  two subsystems write the same slot in merged dumps.

  shard-bounds    A `*_shards` config knob declaration with no bounds check
                  (`std::max` / `std::clamp` / `assert` / `>= 1` mentioning
                  the knob) anywhere in the linted scope. Every shard count
                  must be clamped to >= 1 at its config parse site: a zero
                  slips straight into a `% shards` and a modulo-by-zero
                  (DESIGN.md §15) — it fails lint when the knob is added,
                  not when someone first sets it to 0.

  errc-to-string  An `enum class Errc` enumerator with no matching
                  `case Errc::<name>:` in errc_name()'s switch. A new error
                  code without a name prints as "error N" in every throttle
                  log, test failure and Status::to_string() — it fails lint
                  when the code is added, not when someone finally reads
                  the log.

Modes:
  doceph_lint.py                  lint the tree (src/ tests/ bench/ examples/,
                                  minus tests/lint/ fixtures); exit 1 on any
                                  finding.
  doceph_lint.py --self-test DIR  lint the fixture files under DIR; every
                                  `// doceph-lint-expect: <rule>` annotation
                                  must be matched by >=1 finding of that rule
                                  in that file, or the self-test fails. This
                                  is how tests/lint/ proves the linter still
                                  catches each violation class.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAULT_POINTS_HEADER = "src/common/fault_points.h"
TRACE_POINTS_HEADER = "src/common/trace_points.h"

# Directories whose files are linted in default mode.
LINT_ROOTS = ("src", "tests", "bench", "examples")
# Fixture directory: intentional violations, excluded from default mode.
FIXTURE_DIR = "tests/lint"

# bare-mutex: only product code is checked; within it, the substrate
# directories (where bare std primitives are the point) are exempt.
BARE_MUTEX_CHECKED_DIR = "src/"
BARE_MUTEX_ALLOWED_DIRS = ("src/dbg/", "src/sim/")
# native(): the condvar substrate bridges dbg::Mutex to sim::CondVar.
NATIVE_ALLOWED = ("src/dbg/", "src/sim/time_keeper.")

WAIVER_RE = re.compile(r"//\s*doceph-lint:\s*allow\(bare-mutex\)")
EXPECT_RE = re.compile(r"//\s*doceph-lint-expect:\s*([a-z-]+)")

# A *declaration*: the bare type followed by an identifier (member, local or
# global). Deliberately does not match std::lock_guard<std::mutex> etc. —
# the invariant is about where primitive STATE lives, and usages cannot
# outlive their declaration.
BARE_DECL_RE = re.compile(
    r"(?:^|[\s(])(?:mutable\s+)?"
    r"std::(mutex|condition_variable(?:_any)?|shared_mutex|shared_timed_mutex|"
    r"recursive_mutex|timed_mutex)\s+[A-Za-z_]\w*\s*[;{=]"
)

NATIVE_RE = re.compile(r"\.\s*native\s*\(\s*\)")

# Call sites consuming a fault-point name as their first string argument.
# The "<layer>.<event>" shape (a dot) keeps generic .set("key", ...) calls on
# unrelated classes from matching.
FAULT_CALL_RE = re.compile(
    r"\.\s*(should_fire|hit|set|fire_next|clear|hits|fires)\s*\(\s*\"([a-z0-9_]+\.[a-z0-9_]+)\""
)

FAULT_DECL_RE = re.compile(r"\"([a-z0-9_]+\.[a-z0-9_]+)\"")

# Span-name literals at Tracer call sites. Names are "<layer>.<event>" with
# optional further dots (e.g. "osd.stage.queue"); the domain argument that
# follows is free-form and is not checked.
TRACE_CALL_RE = re.compile(
    r"\.\s*(span|record_span)\s*\(\s*\"((?:[a-z0-9_]+\.)+[a-z0-9_]+)\""
)

TRACE_DECL_RE = re.compile(r"\"((?:[a-z0-9_]+\.)+[a-z0-9_]+)\"")

FIRST_RE = re.compile(r"\bl_([A-Za-z0-9_]+)_first\s*=\s*(\d+)")

# shard-bounds: a `*_shards` knob DECLARATION (int member/local with an
# initializer). `kv_shards_override`-style names deliberately do not match:
# overrides funnel through the knob they override, which carries the clamp.
SHARD_DECL_RE = re.compile(r"\bint\s+(\w*_shards)\s*=")
# A line "checks" a knob when it mentions the knob together with a clamp
# or an assertion. `>= 1` covers hand-rolled guards and doc'd asserts.
SHARD_CHECK_TOKENS = ("std::max", "std::clamp", "assert", ">= 1")

# errc-to-string: the enum lives in status.h, the name switch in status.cpp.
ERRC_ENUM_HEADER = "src/common/status.h"
ERRC_NAME_IMPL = "src/common/status.cpp"
ERRC_ENUM_RE = re.compile(r"\benum\s+class\s+Errc\b")
ERRC_ENUMERATOR_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:=\s*[^,]*)?,?\s*$")
ERRC_CASE_RE = re.compile(r"\bcase\s+Errc::([a-z_][a-z0-9_]*)\s*:")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO) if self.path.is_absolute() else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.msg}"


def strip_line_comment(line: str) -> str:
    """Drop // comments so commented-out code never triggers findings.
    (Waivers/expects are read from the raw line before stripping.)"""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def load_fault_registry() -> set[str]:
    path = REPO / FAULT_POINTS_HEADER
    if not path.is_file():
        return set()
    return set(FAULT_DECL_RE.findall(path.read_text()))


def load_trace_registry() -> set[str]:
    path = REPO / TRACE_POINTS_HEADER
    if not path.is_file():
        return set()
    return set(TRACE_DECL_RE.findall(path.read_text()))


def rel(path: Path) -> str:
    try:
        return path.relative_to(REPO).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(path: Path, registry: set[str], trace_registry: set[str],
              enforce_allowlists: bool = True):
    findings: list[Finding] = []
    text = path.read_text(errors="replace")
    relpath = rel(path)

    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        # Cheap block-comment tracking: good enough for this tree's style
        # (no code after */ on the same line).
        line = raw
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1]
            else:
                continue
        if "/*" in line and "*/" not in line:
            in_block_comment = True
            line = line.split("/*", 1)[0]
        code = strip_line_comment(line)

        # Rule: bare-mutex
        allowed_dir = enforce_allowlists and (
            not relpath.startswith(BARE_MUTEX_CHECKED_DIR)
            or relpath.startswith(BARE_MUTEX_ALLOWED_DIRS))
        if not allowed_dir and BARE_DECL_RE.search(code) and not WAIVER_RE.search(raw):
            findings.append(Finding(
                path, lineno, "bare-mutex",
                "bare std synchronization primitive outside src/dbg//src/sim/; "
                "use dbg::Mutex/dbg::SharedMutex/dbg::CondVar, or add "
                "'// doceph-lint: allow(bare-mutex) <reason>'"))

        # Rule: native
        native_ok = enforce_allowlists and relpath.startswith(NATIVE_ALLOWED)
        if not native_ok and NATIVE_RE.search(code):
            findings.append(Finding(
                path, lineno, "native",
                "dbg::Mutex::native() escapes lockdep and the thread-safety "
                "analysis; it is reserved for the condvar substrate "
                "(src/dbg/, src/sim/time_keeper.*)"))

        # Rule: fault-point
        for _verb, point in FAULT_CALL_RE.findall(code):
            if point not in registry:
                findings.append(Finding(
                    path, lineno, "fault-point",
                    f'fault point "{point}" is not declared in '
                    f"{FAULT_POINTS_HEADER}; declare it there (typo-proofing: "
                    "unregistered names never fire)"))

        # Rule: trace-point
        for _verb, point in TRACE_CALL_RE.findall(code):
            if point not in trace_registry:
                findings.append(Finding(
                    path, lineno, "trace-point",
                    f'span name "{point}" is not declared in '
                    f"{TRACE_POINTS_HEADER}; declare it there (typo-proofing: "
                    "unregistered names orphan the span from its op tree)"))

    return findings


def collect_counter_blocks(paths):
    """Find perf-counter enum blocks: l_X_first = N ... l_X_last, range
    [N, N + number of enumerators between them]."""
    blocks = []  # (name, lo, hi, path, line)
    for path in paths:
        text = path.read_text(errors="replace")
        lines = text.splitlines()
        for lineno, raw in enumerate(lines, 1):
            m = FIRST_RE.search(strip_line_comment(raw))
            if not m:
                continue
            name, lo = m.group(1), int(m.group(2))
            last_tok = f"l_{name}_last"
            # Count enumerators strictly between _first and _last: each is
            # one identifier starting with l_ followed by ',' (values are
            # sequential — the tree never assigns explicit values inside a
            # block).
            count = 0
            hi = None
            for j in range(lineno, min(lineno + 200, len(lines))):
                code = strip_line_comment(lines[j])
                if last_tok in code:
                    hi = lo + count
                    break
                count += len(re.findall(r"\bl_[A-Za-z0-9_]+\s*,", code))
            if hi is None:
                hi = lo + count  # unterminated block; treat counted range
            blocks.append((name, lo, hi, path, lineno))
    return blocks


def lint_counter_ranges(paths):
    findings: list[Finding] = []
    blocks = collect_counter_blocks(paths)
    blocks.sort(key=lambda b: (b[1], b[2]))
    for i in range(1, len(blocks)):
        pname, plo, phi, ppath, pline = blocks[i - 1]
        name, lo, hi, path, line = blocks[i]
        if lo <= phi and plo <= hi:
            findings.append(Finding(
                path, line, "counter-range",
                f'perf-counter block "{name}" [{lo}, {hi}] overlaps '
                f'"{pname}" [{plo}, {phi}] ({rel(ppath)}:{pline}); merged '
                "dumps would alias slots — move it to a free 1000-wide decade"))
    return findings


def lint_shard_bounds(paths):
    """Rule shard-bounds: every `int *_shards = ...` knob declared in the
    scope must have a bounds-check line (clamp/assert mentioning the knob)
    somewhere in the same scope. The scope is the whole tree in default
    mode (knobs are declared in headers, clamped at the consumer's parse
    site) and the single fixture file under --self-test."""
    decls = []  # (name, path, line)
    checks: set[str] = set()  # knob names with a bounds check
    for path in paths:
        for lineno, raw in enumerate(path.read_text(errors="replace").splitlines(), 1):
            code = strip_line_comment(raw)
            m = SHARD_DECL_RE.search(code)
            if m:
                decls.append((m.group(1), path, lineno))
                continue  # the declaration's own initializer is not a check
            if any(tok in code for tok in SHARD_CHECK_TOKENS):
                # Match by name pattern, not against decls seen so far:
                # checks may precede the declaration across files, so the
                # ordering of `paths` must not matter.
                for m2 in re.finditer(r"\b(\w*_shards)\b", code):
                    checks.add(m2.group(1))
    findings: list[Finding] = []
    for name, path, lineno in decls:
        if name not in checks:
            findings.append(Finding(
                path, lineno, "shard-bounds",
                f'shard knob "{name}" has no bounds check; clamp it to >= 1 '
                "at its config parse site (std::max/std::clamp/assert) — a "
                "zero reaches `% shards` as a modulo-by-zero (DESIGN.md §15)"))
    return findings


def collect_errc_enumerators(path: Path):
    """Enumerators of `enum class Errc` in `path`: [(name, line)]."""
    out = []
    in_enum = False
    for lineno, raw in enumerate(path.read_text(errors="replace").splitlines(), 1):
        code = strip_line_comment(raw)
        if not in_enum:
            if ERRC_ENUM_RE.search(code):
                in_enum = True
            continue
        if "}" in code:
            break
        m = ERRC_ENUMERATOR_RE.match(code)
        if m:
            out.append((m.group(1), lineno))
    return out


def lint_errc_names(enum_path: Path, impl_path: Path):
    """Rule errc-to-string: every Errc enumerator must have a name case."""
    findings: list[Finding] = []
    if not enum_path.is_file() or not impl_path.is_file():
        return findings
    named = set(ERRC_CASE_RE.findall(impl_path.read_text(errors="replace")))
    for name, lineno in collect_errc_enumerators(enum_path):
        if name not in named:
            findings.append(Finding(
                enum_path, lineno, "errc-to-string",
                f'Errc::{name} has no "case Errc::{name}:" in errc_name() '
                f"({rel(impl_path)}); it would print as a raw integer in "
                "every Status::to_string() and throttle log"))
    return findings


def iter_tree_files():
    for root in LINT_ROOTS:
        base = REPO / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".hpp", ".cc", ".cpp"):
                continue
            if rel(path).startswith(FIXTURE_DIR + "/"):
                continue
            yield path


def run_default() -> int:
    registry = load_fault_registry()
    if not registry:
        print(f"doceph_lint: {FAULT_POINTS_HEADER} missing or empty", file=sys.stderr)
        return 2
    trace_registry = load_trace_registry()
    if not trace_registry:
        print(f"doceph_lint: {TRACE_POINTS_HEADER} missing or empty", file=sys.stderr)
        return 2
    files = list(iter_tree_files())
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, registry, trace_registry))
    findings.extend(lint_counter_ranges([p for p in files if rel(p).startswith("src/")]))
    findings.extend(lint_shard_bounds(files))
    findings.extend(lint_errc_names(REPO / ERRC_ENUM_HEADER, REPO / ERRC_NAME_IMPL))
    for f in findings:
        print(f)
    if findings:
        print(f"doceph_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"doceph_lint: OK ({len(files)} files, {len(registry)} fault points, "
          f"{len(trace_registry)} trace points)")
    return 0


def run_self_test(fixture_dir: Path) -> int:
    registry = load_fault_registry()
    trace_registry = load_trace_registry()
    fixtures = sorted(p for p in fixture_dir.rglob("*")
                      if p.suffix in (".h", ".hpp", ".cc", ".cpp"))
    if not fixtures:
        print(f"doceph_lint --self-test: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    failures = 0
    for path in fixtures:
        expected = EXPECT_RE.findall(path.read_text(errors="replace"))
        if not expected:
            print(f"{rel(path)}: fixture has no doceph-lint-expect annotation", file=sys.stderr)
            failures += 1
            continue
        findings = lint_file(path, registry, trace_registry, enforce_allowlists=False)
        findings.extend(lint_counter_ranges([path]))
        findings.extend(lint_shard_bounds([path]))
        # Self-contained errc fixtures carry both the enum and the switch.
        findings.extend(lint_errc_names(path, path))
        got = {f.rule for f in findings}
        for rule in expected:
            if rule in got:
                print(f"{rel(path)}: [{rule}] flagged as expected")
            else:
                print(f"{rel(path)}: FIXTURE NOT FLAGGED: expected [{rule}], "
                      f"got {sorted(got) or 'nothing'}", file=sys.stderr)
                failures += 1
    if failures:
        print(f"doceph_lint --self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"doceph_lint --self-test: OK ({len(fixtures)} fixtures)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self-test", metavar="DIR",
                        help="verify every fixture under DIR is flagged")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(Path(args.self_test))
    return run_default()


if __name__ == "__main__":
    sys.exit(main())
